"""Command-line front end: park, count, verify, table.

Every subcommand speaks three formats: ``plain`` human lines, ``tsv`` with a
header row, and ``json`` with one flat record per line.  ``_write`` prints
each record as it is made, after every check that could refuse the run, so
a refusal prints nothing on stdout.  Exit codes: 0 for success / all rows
match, 1 for a failed parking attempt, a verification mismatch or a stdout
closed early, 2 for malformed input or an exceeded enumeration budget.
Output bytes are a pure function of the flags (including ``--seed``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import combinations, cycle, islice, product
from typing import Callable, Iterable, Iterator

from .core import Parked, _check_count, as_car_sizes, simulate_parking
from .counting import DEFAULT_BUDGET, EnumerationBudgetError, count_by_formula, count_report
from .poly import SparsePolynomial
from .strehl import (
    _IDENTITIES, SYMBOLIC_BUDGET, IndexSet, _check_identity, _check_partition_count,
    _trial_sides, f_as_t_specialization, identity_sides, verify_recurrence,
)

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


def cmd_park(args: argparse.Namespace) -> int:
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


def cmd_count(args: argparse.Namespace) -> int:
    budget = _default_budget() if args.budget is None else args.budget
    _check_count(budget, "budget")
    formula = count_by_formula(args.sizes, args.z)
    record = {"sizes": list(args.sizes), "z": args.z, "formula": formula}
    if args.do_enumerate:
        report = count_report(args.sizes, args.z, budget=None if args.force else budget)
        record.update(report._asdict())  # formula keeps its place; the rest follow it
    return EXIT_OK if _write(args.fmt, COUNT_COLUMNS, _count_line, [record]) else EXIT_FAILURE


def _subsets(n: int, include_empty: bool) -> Iterator[IndexSet]:
    for k in range(0 if include_empty else 1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            yield IndexSet(combo)


def _row(suite: str, instance: str, lhs: object, rhs: object, match: bool) -> dict:
    """One verify record, its keys in ``VERIFY_COLUMNS`` order."""
    return {"suite": suite, "instance": instance, "lhs": lhs, "rhs": rhs, "match": match}


def _verify_line(r: dict) -> str:
    return f"{r['suite']} {r['instance']}: lhs={r['lhs']} rhs={r['rhs']} match={_cell(r['match'])}"


def _fleets(args: argparse.Namespace, extra: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(sizes, z)`` over the sweep: up to ``--n-max`` cars plus ``extra``, each of
    size 1..``--y-max``, and z in 1..``--z-max``, z varying fastest."""
    for n in range(extra, args.n_max + extra + 1):
        for sizes in product(range(1, args.y_max + 1), repeat=n):
            for z in range(1, args.z_max + 1):
                yield sizes, z


def _rows_recurrence(args: argparse.Namespace, suite: str) -> Iterator[dict]:
    for fleet, z in _fleets(args, 1):
        sizes, nxt = fleet[:-1], fleet[-1]
        report = verify_recurrence(sizes, nxt, z)
        instance = f"sizes={_csv(sizes) or '-'} next={nxt} z={z}"
        yield _row(suite, instance, report.formula, report.enumerated, report.match)


def _rows_specialization(args: argparse.Namespace, suite: str) -> Iterator[dict]:
    for sizes, z in _fleets(args, 0):
        lhs, rhs = f_as_t_specialization(sizes, z), count_by_formula(sizes, z)
        yield _row(suite, f"sizes={_csv(sizes) or '-'} z={z}", lhs, rhs, lhs == rhs)


def _rows_identity(args: argparse.Namespace, name: str) -> Iterator[dict]:
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


def cmd_verify(args: argparse.Namespace) -> int:
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


def cmd_table(args: argparse.Namespace) -> int:
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
    """Let integers of any length be written out while a subcommand runs.

    Exact answers pass the interpreter's limit on int-to-str conversion
    (4,300 digits by default) easily; the caller's limit is put back after.
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


def _park_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_csv_ints, required=True, metavar="CSV",
                   help="car sizes in arrival order; empty string for no cars")
    p.add_argument("--z", type=int, required=True, help="trailer parameter (z-1 trailer spots)")
    p.add_argument("--prefs", type=_csv_ints, required=True, metavar="CSV",
                   help="preferred spots, one per car")


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_csv_ints, required=True, metavar="CSV")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", dest="do_enumerate",
                   help="also run the brute-force oracle and compare")
    p.add_argument("--budget", type=int, default=None,
                   help="refuse when the oracle's search may walk more row cells"
                        " (states times m spots) than this"
                        f" (default {DEFAULT_BUDGET} or $PARKSEQ_BUDGET)")
    p.add_argument("--force", action="store_true", help="enumerate past the budget")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--set", type=_csv_ints, default=None, dest="ground", metavar="CSV",
                   help="check one explicit ground set instead of sweeping")
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--y-max", type=int, default=3, dest="y_max")
    p.add_argument("--z-max", type=int, default=4, dest="z_max")
    p.add_argument("--random", action="store_true", dest="randomized",
                   help="force randomized evaluation instead of symbolic expansion")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES, default="ones")
    p.add_argument("--car", type=int, default=2, help="car size for the const family")
    p.add_argument("--pattern", type=_csv_ints, default=(), metavar="CSV",
                   help="size pattern, cycled to length n, for the pattern family")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--z-max", type=int, default=4, dest="z_max")


# (name, help line, the function that adds the subcommand's own arguments, the command)
_SUBCOMMANDS = (
    ("park", "run one parking attempt", _park_arguments, cmd_park),
    ("count", "count parking sequences", _count_arguments, cmd_count),
    ("verify", "verify counting identities", _verify_arguments, cmd_verify),
    ("table", "tabulate count families", _table_arguments, cmd_table),
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
    invoked = next((tok for tok in argv if not tok.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="parkseq",
        description="Parking sequences of variable-size cars behind a trailer:"
        " simulate, count, verify, tabulate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_line, add_arguments, command in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(command=command)
        if name == invoked:
            p.add_argument("--format", choices=FORMATS, default="plain", dest="fmt")
            add_arguments(p)
    return parser


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
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _exact_int_text():
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
