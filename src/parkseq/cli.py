"""Command-line front end: park, count, verify, table.

Every subcommand speaks three formats: ``plain`` human lines, ``tsv`` with a
header row, and ``json`` with one flat record per line.  ``_write`` prints
each record as it is made, after every check that could refuse the run, so
a refusal prints nothing on stdout.  Exit codes: 0 for success / all rows
match, 1 for a failed parking attempt, a verification mismatch or a stdout
closed early, 2 for malformed input or an exceeded enumeration budget.
Output bytes are a pure function of the flags (including ``--seed``).

Each subcommand's options are declared once, as data (``_SUBCOMMANDS``).
``_read`` reads a well-formed command line from that declaration directly;
argparse, built from the same declaration by ``_build_parser``, is loaded
only for help, usage errors and the forms ``_read`` declines, so its help
and error messages stay the CLI's.  The polynomial engine is imported by
the ``verify`` functions that use it, so ``park``, ``count`` and ``table``
never load it.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from itertools import combinations, cycle, islice, product
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .core import Parked, _check_count, as_car_sizes, simulate_parking
from .counting import DEFAULT_BUDGET, EnumerationBudgetError, count_by_formula, count_report

if TYPE_CHECKING:  # argparse loads only with the parser, the engine only with verify
    import argparse

    from .poly import SparsePolynomial
    from .strehl import IndexSet

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

FORMATS = ("plain", "json", "tsv")
SUITES = ("recurrence", "easy", "sheffer", "binomial", "specialization", "all")
FAMILIES = ("ones", "const", "pattern")

PARK_COLUMNS = ("sizes", "z", "prefs", "outcome", "layout", "car", "first_empty", "blocked_at")
COUNT_COLUMNS = ("sizes", "z", "formula", "enumerated", "match", "tuples_scanned")
VERIFY_COLUMNS = ("suite", "instance", "lhs", "rhs", "match")
TABLE_COLUMNS = ("n", "z", "count")


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        import argparse  # loaded already whenever argparse is the one reporting this

        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _csv(values: Iterable[object]) -> str:
    return ",".join(str(v) for v in values)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return _csv(value)
    return str(value)


def _write(fmt: str, columns: tuple[str, ...], plain: Callable, records: Iterable) -> bool:
    """Print each record as it arrives; True when no record has a false ``match``.

    ``plain`` gives a record's plain line; ``json`` writes the record and
    ``tsv`` its cells under a header row printed first.
    """
    if fmt == "json":
        import json  # only --format json pays for loading the encoder
        line = json.dumps
    elif fmt == "tsv":
        print("\t".join(columns))

        def line(record: dict) -> str:
            return "\t".join(_cell(record.get(col)) for col in columns)
    else:
        line = plain
    ok = True
    for record in records:
        print(line(record))
        ok = ok and bool(record.get("match", True))
    return ok


def _digest(p: SparsePolynomial) -> str:
    """Short stable fingerprint of a canonical polynomial for table cells."""
    import hashlib  # loads OpenSSL; only symbolic rows need it
    return f"t{len(p)}:{hashlib.sha256(str(p).encode()).hexdigest()[:12]}"


def _park_line(r: dict) -> str:
    if r["outcome"] == "parked":
        return r["layout"]
    if r["outcome"] == "collision":
        blocked = f"but spot {r['blocked_at']} is occupied"
        return f"collision: car {r['car']} reached empty spot {r['first_empty']} {blocked}"
    if r["first_empty"] is None:
        return f"overflow: car {r['car']} found no empty spot at or after its preference"
    return f"overflow: car {r['car']} would run past the last spot from spot {r['first_empty']}"


def cmd_park(args: SimpleNamespace) -> int:
    outcome = simulate_parking(args.sizes, args.z, args.prefs)
    record = {"sizes": list(args.sizes), "z": args.z, "prefs": list(args.prefs)}
    record.update(outcome=type(outcome).__name__.lower(), **outcome._asdict())
    if isinstance(outcome, Parked):
        record["layout"] = outcome.layout.render()
    _write(args.fmt, PARK_COLUMNS, _park_line, [record])
    return EXIT_OK if isinstance(outcome, Parked) else EXIT_FAILURE


def _count_line(r: dict) -> str:
    if "match" not in r:
        return str(r["formula"])
    return f"formula={r['formula']} enumerated={r['enumerated']} match={_cell(r['match'])}"


def cmd_count(args: SimpleNamespace) -> int:
    budget = _default_budget() if args.budget is None else args.budget
    _check_count(budget, "budget")
    formula = count_by_formula(args.sizes, args.z)
    record = {"sizes": list(args.sizes), "z": args.z, "formula": formula}
    if args.do_enumerate:
        report = count_report(args.sizes, args.z, budget=None if args.force else budget)
        record.update(report._asdict())  # formula keeps its place; the rest follow it
    return EXIT_OK if _write(args.fmt, COUNT_COLUMNS, _count_line, [record]) else EXIT_FAILURE


def _subsets(n: int, include_empty: bool) -> Iterator[IndexSet]:
    from .strehl import IndexSet

    for k in range(0 if include_empty else 1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            yield IndexSet(combo)


def _row(suite: str, instance: str, lhs: object, rhs: object, match: bool) -> dict:
    """One verify record, its keys in ``VERIFY_COLUMNS`` order."""
    return {"suite": suite, "instance": instance, "lhs": lhs, "rhs": rhs, "match": match}


def _verify_line(r: dict) -> str:
    return f"{r['suite']} {r['instance']}: lhs={r['lhs']} rhs={r['rhs']} match={_cell(r['match'])}"


def _fleets(args: SimpleNamespace, extra: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(sizes, z)`` over the sweep: up to ``--n-max`` cars plus ``extra``, each of
    size 1..``--y-max``, and z in 1..``--z-max``, z varying fastest."""
    for n in range(extra, args.n_max + extra + 1):
        for sizes in product(range(1, args.y_max + 1), repeat=n):
            for z in range(1, args.z_max + 1):
                yield sizes, z


def _rows_recurrence(args: SimpleNamespace, suite: str) -> Iterator[dict]:
    from .strehl import verify_recurrence

    for fleet, z in _fleets(args, 1):
        sizes, nxt = fleet[:-1], fleet[-1]
        report = verify_recurrence(sizes, nxt, z)
        instance = f"sizes={_csv(sizes) or '-'} next={nxt} z={z}"
        yield _row(suite, instance, report.formula, report.enumerated, report.match)


def _rows_specialization(args: SimpleNamespace, suite: str) -> Iterator[dict]:
    from .strehl import f_as_t_specialization

    for sizes, z in _fleets(args, 0):
        lhs, rhs = f_as_t_specialization(sizes, z), count_by_formula(sizes, z)
        yield _row(suite, f"sizes={_csv(sizes) or '-'} z={z}", lhs, rhs, lhs == rhs)


def _rows_identity(args: SimpleNamespace, name: str) -> Iterator[dict]:
    from .strehl import SYMBOLIC_BUDGET, _trial_sides, identity_sides

    if args.ground is not None:
        grounds: Iterable[IndexSet] = [args.ground]
    else:
        grounds = _subsets(args.n_max, include_empty=name != "easy")
    for A in grounds:
        if args.randomized or len(A) > SYMBOLIC_BUDGET:
            trials = list(_trial_sides(name, A, args.trials, args.seed))
            # the row shows its first failing trial's sides, or else its first trial's
            failing = next((k for k, (lhs, rhs) in enumerate(trials) if lhs != rhs), None)
            lhs, rhs = trials[failing or 0]
            instance = f"A={{{_csv(A)}}} randomized trials={args.trials} seed={args.seed}"
            if failing is not None:  # trial k is the k-th draw, so --trials k replays it
                instance += f" trial={failing + 1}"
            yield _row(name, instance, lhs, rhs, lhs == rhs)
        else:
            lhs_p, rhs_p = identity_sides(name, A)
            instance = f"A={{{_csv(A)}}} symbolic"
            yield _row(name, instance, _digest(lhs_p), _digest(rhs_p), lhs_p == rhs_p)


_SUITE_ROWS = dict(
    recurrence=_rows_recurrence, easy=_rows_identity, sheffer=_rows_identity,
    binomial=_rows_identity, specialization=_rows_specialization,
)


def cmd_verify(args: SimpleNamespace) -> int:
    # the polynomial engine loads here: only verify uses it
    from .strehl import _IDENTITIES, IndexSet, _check_identity, _check_partition_count

    _check_count(args.trials, "trials")
    if args.n_max < 0 or args.y_max < 1 or args.z_max < 1:
        raise ValueError(
            f"invalid sweep ranges: n_max={args.n_max} y_max={args.y_max} z_max={args.z_max}"
        )
    ground = args.ground = None if args.ground is None else IndexSet(args.ground)  # rows read it
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    # rows go out as they are computed, so every refusal a sweep could reach comes first
    for suite in suites:
        if ground is not None and suite in _IDENTITIES:
            _check_identity(suite, ground)
        elif suite in ("recurrence", "sheffer", "binomial"):
            _check_partition_count(args.n_max)
    rows = (row for suite in suites for row in _SUITE_ROWS[suite](args, suite))
    return EXIT_OK if _write(args.fmt, VERIFY_COLUMNS, _verify_line, rows) else EXIT_FAILURE


def cmd_table(args: SimpleNamespace) -> int:
    if not 0 <= args.n_max <= 12:
        raise ValueError(f"table needs 0 <= n_max <= 12, got {args.n_max}")
    _check_count(args.z_max, "z_max")
    if args.family == "pattern" and not args.pattern:
        raise ValueError("--pattern is required for the pattern family")
    if args.family == "const":
        _check_count(args.car, "--car")
    pattern = {"ones": (1,), "const": (args.car,)}.get(args.family, args.pattern)

    def sizes_for(n: int) -> tuple[int, ...]:
        return tuple(islice(cycle(pattern), n))

    as_car_sizes(sizes_for(args.n_max))  # the longest fleet holds every size the rows use
    rows = (
        {"family": args.family, "n": n, "z": z, "count": count_by_formula(sizes_for(n), z)}
        for n in range(args.n_max + 1)
        for z in range(1, args.z_max + 1)
    )
    _write(args.fmt, TABLE_COLUMNS, "n={n} z={z} count={count}".format_map, rows)
    return EXIT_OK


@contextmanager
def _exact_int_text() -> Iterator[None]:
    """Let integers of any length be read and written while a command line runs.

    Exact answers and integer flags pass the interpreter's limit on int/str
    conversion (4,300 digits by default) easily; the caller's limit is put
    back after.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters older than the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_FORMAT = ("--format", dict(choices=FORMATS, default="plain", dest="fmt"))

# each subcommand's own arguments, as (flag or positional name, add_argument keywords)
_PARK_OPTIONS = (
    ("--sizes", dict(type=_csv_ints, required=True, metavar="CSV",
                     help="car sizes in arrival order; empty string for no cars")),
    ("--z", dict(type=int, required=True, help="trailer parameter (z-1 trailer spots)")),
    ("--prefs", dict(type=_csv_ints, required=True, metavar="CSV",
                     help="preferred spots, one per car")),
)
_COUNT_OPTIONS = (
    ("--sizes", dict(type=_csv_ints, required=True, metavar="CSV")),
    ("--z", dict(type=int, required=True)),
    ("--enumerate", dict(action="store_true", dest="do_enumerate",
                         help="also run the brute-force oracle and compare")),
    ("--budget", dict(type=int, default=None,
                      help="refuse when the oracle's search may walk more row cells"
                           " (states times m spots) than this"
                           f" (default {DEFAULT_BUDGET} or $PARKSEQ_BUDGET)")),
    ("--force", dict(action="store_true", help="enumerate past the budget")),
)
_VERIFY_OPTIONS = (
    ("suite", dict(choices=SUITES)),
    ("--set", dict(type=_csv_ints, default=None, dest="ground", metavar="CSV",
                   help="check one explicit ground set instead of sweeping")),
    ("--n-max", dict(type=int, default=3, dest="n_max")),
    ("--y-max", dict(type=int, default=3, dest="y_max")),
    ("--z-max", dict(type=int, default=4, dest="z_max")),
    ("--random", dict(action="store_true", dest="randomized",
                      help="force randomized evaluation instead of symbolic expansion")),
    ("--trials", dict(type=int, default=20)),
    ("--seed", dict(type=int, default=42)),
)
_TABLE_OPTIONS = (
    ("--family", dict(choices=FAMILIES, default="ones")),
    ("--car", dict(type=int, default=2, help="car size for the const family")),
    ("--pattern", dict(type=_csv_ints, default=(), metavar="CSV",
                       help="size pattern, cycled to length n, for the pattern family")),
    ("--n-max", dict(type=int, default=8, dest="n_max")),
    ("--z-max", dict(type=int, default=4, dest="z_max")),
)

# (name, help line, the subcommand's own arguments, the command)
_SUBCOMMANDS = (
    ("park", "run one parking attempt", _PARK_OPTIONS, cmd_park),
    ("count", "count parking sequences", _COUNT_OPTIONS, cmd_count),
    ("verify", "verify counting identities", _VERIFY_OPTIONS, cmd_verify),
    ("table", "tabulate count families", _TABLE_OPTIONS, cmd_table),
)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``, with arguments for the invoked subcommand only.

    The invoked subcommand is the one named by the first token of ``argv``
    that does not start with ``-``; it gets ``--format`` and then its own
    arguments.  The others get only their name, help line and command (the
    ``command`` default that ``main`` calls), which is all that ``parkseq -h``
    and an invalid-choice error read, so parsing ``argv`` gives what a parser
    with every subcommand filled in would give.
    """
    import argparse  # only help, usage errors and the forms _read declines load it

    invoked = next((tok for tok in argv if not tok.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="parkseq",
        description="Parking sequences of variable-size cars behind a trailer:"
        " simulate, count, verify, tabulate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_line, options, command in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(command=command)
        if name == invoked:
            for flag, keywords in (_FORMAT, *options):
                p.add_argument(flag, **keywords)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser(argv).parse_args(argv)`` gives, read without
    argparse, or None where ``argv`` is not in the plain form read here.

    The plain form is a subcommand name, then each of its options (exact
    flags, ``--format`` among them) at most once, a ``store_true`` flag alone
    and any other flag followed by its value, and its positional wherever no
    flag waits for a value.  A value must not start with ``-`` unless the rest
    is decimal digits (argparse, with no option that looks like a negative
    number, takes ``-1`` as a value too), must pass the option's ``type`` and
    must be one of its ``choices``; every required argument must be there.
    Anything else (help, abbreviations, ``--flag=value``, ``--``, repeats,
    other values starting with ``-``, a missing value, an extra positional,
    an unknown subcommand) is left to argparse, whose help and error messages
    are the CLI's.
    """
    row = next((row for row in _SUBCOMMANDS if argv[:1] == [row[0]]), None)
    if row is None:
        return None
    name, _, options, command = row
    declared = dict((_FORMAT, *options))
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            if token not in declared or token in given:
                return None
            flag = token
            if declared[flag].get("action") == "store_true":
                given[flag] = True
                continue
            token = next(tokens, "-")  # a missing value is declined as one starting with -
            if token.startswith("-") and not token[1:].isdecimal():
                return None
        else:
            flag = next((f for f in declared if not f.startswith("-") and f not in given), None)
            if flag is None:
                return None
        keywords = declared[flag]
        try:
            value = keywords.get("type", str)(token)
        except Exception:  # argparse reports the value, or raises what it does not catch
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(subcommand=name, command=command)
    for flag, keywords in declared.items():
        if flag not in given and keywords.get("required", not flag.startswith("-")):
            return None
        store_true = keywords.get("action") == "store_true"
        default = keywords.get("default", False if store_true else None)
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        setattr(args, dest, given.get(flag, default))
    return args


def _default_budget() -> int:
    raw = os.environ.get("PARKSEQ_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PARKSEQ_BUDGET must be an integer, got {raw!r}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    with _exact_int_text():  # flag values are integers too, of any length
        try:
            args = _read(argv)
            if args is None:
                args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # argparse already reported the problem
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        try:
            return args.command(args)
        except EnumerationBudgetError as exc:
            print(
                f"error: {exc}; raise it with --budget N or PARKSEQ_BUDGET=N,"
                " or lift it with --force",
                file=sys.stderr,
            )
            return EXIT_USAGE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def run() -> None:
    """Console-script entry point; a stdout closed early (``| head``) exits 1 quietly."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        # the flush at exit would fail again; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILURE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
