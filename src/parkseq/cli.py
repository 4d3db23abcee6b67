"""Command-line front end: park, count, verify, table.

Every subcommand speaks three formats: ``plain`` human lines, ``tsv`` with a
header row, and ``json`` with one flat record per line.  Exit codes: 0 for
success / all rows match, 1 for a failed parking attempt or a verification
mismatch, 2 for malformed input or an exceeded enumeration budget.  Output
bytes are a pure function of the flags (including ``--seed``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import combinations, cycle, islice, product
from typing import Iterable, Iterator

from .core import Collision, Parked, simulate_parking
from .counting import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    IndexSet,
    _check_budget,
    count_by_formula,
    count_report,
)
from .poly import SparsePolynomial
from .strehl import (
    SYMBOLIC_BUDGET,
    _trial_sides,
    f_as_t_specialization,
    identity_sides,
    verify_recurrence,
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


def _emit(fmt: str, records: list[dict], plain_lines: list[str], columns: tuple[str, ...]) -> None:
    if fmt == "plain":
        for line in plain_lines:
            print(line)
    elif fmt == "json":
        import json  # only --format json pays for loading the encoder
        for record in records:
            print(json.dumps(record))
    else:
        print("\t".join(columns))
        for record in records:
            print("\t".join(_cell(record.get(col)) for col in columns))


def _digest(p: SparsePolynomial) -> str:
    """Short stable fingerprint of a canonical polynomial for table cells."""
    import hashlib  # loads OpenSSL; only symbolic rows need it
    text = str(p)
    return f"t{len(p._terms)}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def cmd_park(args: argparse.Namespace) -> int:
    outcome = simulate_parking(args.sizes, args.z, args.prefs)
    record: dict = {"sizes": list(args.sizes), "z": args.z, "prefs": list(args.prefs)}
    if isinstance(outcome, Parked):
        layout = outcome.layout.render()
        record.update(outcome="parked", layout=layout)
        plain = layout
        code = EXIT_OK
    elif isinstance(outcome, Collision):
        record.update(
            outcome="collision",
            car=outcome.car,
            first_empty=outcome.first_empty,
            blocked_at=outcome.blocked_at,
        )
        plain = (
            f"collision: car {outcome.car} reached empty spot {outcome.first_empty}"
            f" but spot {outcome.blocked_at} is occupied"
        )
        code = EXIT_FAILURE
    else:
        record.update(outcome="overflow", car=outcome.car, first_empty=outcome.first_empty)
        if outcome.first_empty is None:
            plain = f"overflow: car {outcome.car} found no empty spot at or after its preference"
        else:
            plain = (
                f"overflow: car {outcome.car} would run past the last spot"
                f" from spot {outcome.first_empty}"
            )
        code = EXIT_FAILURE
    _emit(args.fmt, [record], [plain], PARK_COLUMNS)
    return code


def cmd_count(args: argparse.Namespace) -> int:
    budget = _default_budget() if args.budget is None else args.budget
    _check_budget(budget)
    formula = count_by_formula(args.sizes, args.z)
    record: dict = {"sizes": list(args.sizes), "z": args.z, "formula": formula}
    if not args.do_enumerate:
        _emit(args.fmt, [record], [str(formula)], COUNT_COLUMNS)
        return EXIT_OK
    report = count_report(args.sizes, args.z, budget=None if args.force else budget)
    record.update(
        enumerated=report.enumerated,
        match=report.match,
        tuples_scanned=report.tuples_scanned,
    )
    plain = (
        f"formula={report.formula} enumerated={report.enumerated}"
        f" match={_cell(report.match)}"
    )
    _emit(args.fmt, [record], [plain], COUNT_COLUMNS)
    return EXIT_OK if report.match else EXIT_FAILURE


def _subsets(n: int, include_empty: bool) -> Iterator[IndexSet]:
    for k in range(0 if include_empty else 1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            yield IndexSet(combo)


def _rows_recurrence(args: argparse.Namespace) -> Iterator[dict]:
    for n in range(args.n_max + 1):
        for sizes in product(range(1, args.y_max + 1), repeat=n):
            for nxt in range(1, args.y_max + 1):
                for z in range(1, args.z_max + 1):
                    report = verify_recurrence(sizes, nxt, z)
                    yield {
                        "suite": "recurrence",
                        "instance": f"sizes={_csv(sizes) or '-'} next={nxt} z={z}",
                        "lhs": report.formula,
                        "rhs": report.enumerated,
                        "match": report.match,
                    }


def _rows_identity(args: argparse.Namespace, name: str, ground: IndexSet | None) -> Iterator[dict]:
    if ground is not None:
        grounds: Iterable[IndexSet] = [ground]
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
            yield {"suite": name, "instance": instance, "lhs": lhs, "rhs": rhs, "match": lhs == rhs}
        else:
            lhs_p, rhs_p = identity_sides(name, A)
            yield {
                "suite": name,
                "instance": f"A={{{_csv(A)}}} symbolic",
                "lhs": _digest(lhs_p),
                "rhs": _digest(rhs_p),
                "match": lhs_p == rhs_p,
            }


def _rows_specialization(args: argparse.Namespace) -> Iterator[dict]:
    for n in range(args.n_max + 1):
        for sizes in product(range(1, args.y_max + 1), repeat=n):
            for z in range(1, args.z_max + 1):
                lhs = f_as_t_specialization(sizes, z)
                rhs = count_by_formula(sizes, z)
                yield {
                    "suite": "specialization",
                    "instance": f"sizes={_csv(sizes) or '-'} z={z}",
                    "lhs": lhs,
                    "rhs": rhs,
                    "match": lhs == rhs,
                }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if args.n_max < 0 or args.y_max < 1 or args.z_max < 1:
        raise ValueError(
            f"invalid sweep ranges: n_max={args.n_max} y_max={args.y_max} z_max={args.z_max}"
        )
    ground = None if args.ground is None else IndexSet(args.ground)
    if ground is not None and not ground and args.suite in ("easy", "all"):
        raise ValueError("the easy identity needs a nonempty --set")
    rows: list[dict] = []
    for suite in SUITES[:-1] if args.suite == "all" else [args.suite]:
        if suite == "recurrence":
            rows.extend(_rows_recurrence(args))
        elif suite == "specialization":
            rows.extend(_rows_specialization(args))
        else:
            rows.extend(_rows_identity(args, suite, ground))
    plain = [
        f"{row['suite']} {row['instance']}: lhs={row['lhs']} rhs={row['rhs']}"
        f" match={_cell(row['match'])}"
        for row in rows
    ]
    _emit(args.fmt, rows, plain, VERIFY_COLUMNS)
    return EXIT_OK if all(row["match"] for row in rows) else EXIT_FAILURE


def cmd_table(args: argparse.Namespace) -> int:
    if not 0 <= args.n_max <= 12:
        raise ValueError(f"table needs 0 <= n_max <= 12, got {args.n_max}")
    if args.z_max < 1:
        raise ValueError(f"z_max must be >= 1, got {args.z_max}")
    if args.family == "pattern" and not args.pattern:
        raise ValueError("--pattern is required for the pattern family")
    if args.family == "const" and args.car < 1:
        raise ValueError(f"--car must be >= 1, got {args.car}")

    def sizes_for(n: int) -> tuple[int, ...]:
        if args.family == "ones":
            return (1,) * n
        if args.family == "const":
            return (args.car,) * n
        return tuple(islice(cycle(args.pattern), n))

    rows = []
    for n in range(args.n_max + 1):
        for z in range(1, args.z_max + 1):
            count = count_by_formula(sizes_for(n), z)
            rows.append({"family": args.family, "n": n, "z": z, "count": count})
    plain = [f"n={row['n']} z={row['z']} count={row['count']}" for row in rows]
    _emit(args.fmt, rows, plain, TABLE_COLUMNS)
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
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
