"""The benchmark's tracer still installs on the package's names.

``bench/tracer.py`` wraps the public functions it lists and the
``SparsePolynomial`` methods it lists, looked up by name when it installs.
Deleting or renaming one of them breaks the benchmark at start-up, so this
installs the tracer, checks that calls are counted, and puts everything back.
"""

from pathlib import Path

import parkseq
import parkseq.cli  # the tracer also wraps ``cli.main`` when the CLI is loaded
from parkseq import SparsePolynomial, W, Z, poly

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    methods = dict(vars(SparsePolynomial))
    tracer = Tracer()
    tracer.install()
    try:
        assert parkseq.count_by_formula((2, 2, 1), 4) == 288
        assert poly(Z) * poly(W) == poly(W) * Z
    finally:
        tracer.uninstall()
    assert tracer.calls["counting.formula"] == 1
    assert tracer.calls["poly.mul"] == 2
    assert dict(vars(SparsePolynomial)) == methods
    assert parkseq.strehl.t_poly is parkseq.t_poly


def test_tracer_counts_the_splits_of_a_cold_side(monkeypatch):
    """The split counter follows ``partitions_into_two`` into the module that holds it."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    parkseq.strehl._sides.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        parkseq.identity_sides("sheffer", (1, 2))
    finally:
        tracer.uninstall()
    assert tracer.counters["counting.partitions.splits"] == 4
