"""In-memory span tracer that wraps parkseq's public names from outside.

Only names listed in ``parkseq.__all__`` are wrapped: module-level functions,
public methods of ``SparsePolynomial`` and ``ParameterAssignment.random_for``.
Each function wrapper is installed in every parkseq module namespace that
binds the name, so calls between the package's own modules are seen too, and
`Tracer.uninstall` puts every original back.

A span is (name, start, end, parent).  Spans are kept in compact arrays while
the run lasts and written out by `Tracer.write_spans` at the end.  Per group
of names the tracer keeps calls, busy time (outermost spans only, so a group
that nests in itself is not counted twice) and self time (a span's duration
minus the spans directly beneath it), plus exact work counters.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (group, attribute names) for module-level functions in parkseq.__all__.
FUNCTION_GROUPS = (
    ("core.simulate", ("simulate_parking", "is_parking_sequence")),
    ("counting.report", ("count_report", "count_by_enumeration")),
    ("counting.formula", ("count_by_formula", "count_no_trailer")),
    ("counting.recurrence", ("verify_recurrence",)),
    ("counting.partitions", ("partitions_into_two",)),
    ("strehl.expand", ("t_poly", "s_poly")),
    ("strehl.sides", ("identity_sides",)),
    ("strehl.specialize", ("f_as_t_specialization", "abel_rothe_specialize")),
    ("strehl.value", ("t_value", "s_value")),
    ("strehl.random_check", ("random_identity_check",)),
)

# (group, method names) on SparsePolynomial.
METHOD_GROUPS = (
    ("poly.mul", ("__mul__", "__rmul__")),
    ("poly.add", ("__add__", "__radd__")),
    ("poly.substitute", ("substitute",)),
    ("poly.evaluate", ("evaluate",)),
    ("poly.eq", ("__eq__",)),
    ("poly.str", ("__str__",)),
)

PARTITIONS = "counting.partitions"
CLI_MAIN = "cli.main"
RANDOM_FOR = "poly.random_for"


def _size(value: object) -> int:
    """Term count of a polynomial operand, through the public ``terms`` copy."""
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    if isinstance(value, int):
        return 1 if value else 0
    return 1  # a Variable is a one-term polynomial


class Tracer:
    """Spans and counters for one process; install, run, uninstall, report."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, group, start, child time]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self._seen_expansions: set = set()
        self._installed: list[tuple[object, str, object]] = []
        self._default_zvar = None

    # -- spans -------------------------------------------------------------

    def _push(self, group: str) -> list:
        ix = self._name_ix.get(group)
        if ix is None:
            ix = self._name_ix[group] = len(self.names)
            self.names.append(group)
        span = len(self.span_name)
        self.span_name.append(ix)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._depth[group] += 1
        frame = [span, group, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        span, group, start, child = frame
        self._stack.pop()
        self.span_end[span] = end
        duration = end - start
        self.calls[group] += 1
        self.self_time[group] += duration - child
        self._depth[group] -= 1
        if not self._depth[group]:
            self.busy[group] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def _charge_overhead(self, since: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - since

    def span(self, group: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span of ``group``."""
        frame = self._push(group)
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, group: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if after is not None:
                since = time.perf_counter()
                after(args, kwargs, result)
                tracer._charge_overhead(since)
            return result

        return wrapper

    def _wrap_partitions(self, fn):
        tracer = self

        def pairs(stream):
            while True:
                frame = tracer._push(PARTITIONS)
                try:
                    pair = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer._pop(frame)
                tracer.counters["counting.partitions.splits"] += 1
                yield pair

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return pairs(tracer.span(PARTITIONS, fn, *args, **kwargs))

        return wrapper

    def _after_report(self, args, kwargs, report) -> None:
        self.counters["counting.tuples_scanned"] += report.tuples_scanned
        self.counters["counting.tuples_parked"] += report.enumerated

    def _after_recurrence(self, args, kwargs, report) -> None:
        self.counters["counting.recurrence.splits"] += report.tuples_scanned

    def _after_mul(self, args, kwargs, result) -> None:
        if result is NotImplemented:
            return
        self.counters["poly.mul.term_pairs"] += _size(args[0]) * _size(args[1])
        out = _size(result)
        self.counters["poly.mul.terms_out"] += out
        self._peak(out)

    def _after_poly(self, args, kwargs, result) -> None:
        if result is not NotImplemented:
            self._peak(_size(result))

    def _peak(self, terms: int) -> None:
        if terms > self.counters["poly.peak_terms"]:
            self.counters["poly.peak_terms"] = terms

    def _after_expand(self, family: str):
        def after(args, kwargs, result) -> None:
            zvar = args[1] if len(args) > 1 else kwargs.get("zvar", self._default_zvar)
            key = (family, tuple(args[0]), zvar)
            if key in self._seen_expansions:
                self.counters["strehl.expand.repeats"] += 1
            else:
                self._seen_expansions.add(key)

        return after

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public names in every loaded parkseq module."""
        import parkseq

        public = set(parkseq.__all__)
        self._default_zvar = parkseq.Z
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "parkseq" or name.startswith("parkseq."))]
        hooks = {
            "count_report": self._after_report,
            "verify_recurrence": self._after_recurrence,
            "t_poly": self._after_expand("t"),
            "s_poly": self._after_expand("s"),
        }
        for group, attrs in FUNCTION_GROUPS:
            for attr in attrs:
                if attr not in public:
                    raise RuntimeError(f"{attr} is not in parkseq.__all__")
                original = getattr(parkseq, attr)
                if group == PARTITIONS:
                    wrapper = self._wrap_partitions(original)
                else:
                    wrapper = self._wrap(original, group, hooks.get(attr))
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._set(module, attr, wrapper)

        cls = parkseq.SparsePolynomial
        method_hooks = {"poly.mul": self._after_mul, "poly.add": self._after_poly,
                        "poly.substitute": self._after_poly}
        for group, attrs in METHOD_GROUPS:
            for attr in attrs:
                self._set(cls, attr, self._wrap(vars(cls)[attr], group, method_hooks.get(group)))
        assignment = parkseq.ParameterAssignment
        random_for = vars(assignment)["random_for"].__func__
        self._set(assignment, "random_for", classmethod(self._wrap(random_for, RANDOM_FOR)))

        cli = sys.modules.get("parkseq.cli")
        if cli is not None:
            self._set(cli, "main", self._wrap(cli.main, CLI_MAIN))

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-group calls, busy and self seconds, plus the exact counters."""
        groups = {g: {"calls": self.calls[g], "busy_s": self.busy[g], "self_s": self.self_time[g]}
                  for g in self.calls}
        return {"groups": groups, "counters": dict(self.counters), "spans": len(self.span_name)}

    def write_spans(self, path) -> None:
        """One TSV row per span: index, name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tstart\tend\n")
            names = self.names
            for i, (ix, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(f"{i}\t{names[ix]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
