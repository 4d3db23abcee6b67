"""Tests of the benchmark itself:  python3 -m pytest bench/tests -q

They run the benchmark on the source checkout that holds this directory,
with ``--seconds 0`` so each run makes only its minimum number of passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

EXACT_COUNTERS = (
    "counting.tuples_scanned",
    "counting.recurrence.splits",
    "counting.partitions.splits",
    "poly.mul.term_pairs",
    "poly.mul.terms_out",
    "poly.peak_terms",
    "strehl.expand.calls",
)


def bench(root: Path, workload: str, seed: int = 3, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def copy_checkout(dest: Path, with_source: bool = True) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_pure_function_of_the_seed(workload):
    assert workloads.jobs_for(workload, 5) == workloads.jobs_for(workload, 5)
    assert workloads.jobs_for(workload, 5) != workloads.jobs_for(workload, 6)


@pytest.mark.parametrize("workload", ["oracle", "symbolic", "randomized"])
def test_every_seed_asks_for_the_same_shapes(workload):
    def shape(job):
        return (job["kind"], job.get("identity"), len(job.get("A", job.get("sizes", ()))),
                job.get("which"), "omit" in job)

    assert sorted(map(shape, workloads.jobs_for(workload, 1))) == sorted(
        map(shape, workloads.jobs_for(workload, 2)))


def test_negative_control_that_passes_is_a_failure():
    control = next(j for j in workloads.jobs_for("randomized", 1) if "omit" in j)
    assert workloads.check(control, True, {}) is not None
    assert workloads.check(control, False, {}) is None


def test_abel_rothe_reference_multiplies_out():
    # z * (z + 1*eta + 2*xi) * (z + 2*eta + 1*xi) at xi = 1, eta = 1: z * (z + 3)^2
    assert workloads.abel_rothe_coefficients(3, "t", 1, 1) == [0, 9, 6, 1]
    assert workloads.abel_rothe_coefficients(1, "s", 2, 5) == [5, 1]


def test_canonical_digest_ignores_labels():
    text_a = "z*y1 + 3*z*x1_2 + y2^2"
    text_b = "z*y4 + 3*z*x4_17 + y17^2"
    assert workloads.canonical_digest(text_a, [1, 2]) == workloads.canonical_digest(text_b, [4, 17])


def test_reference_scale_is_proportional():
    import speed

    assert speed.scale([speed.REFERENCE_S] * 3) == 1.0
    # a machine twice as slow doubles the chunks and halves the factor
    assert speed.scale([2 * speed.REFERENCE_S, 9.0, 2 * speed.REFERENCE_S]) == 0.5
    assert 0 < speed.chunk_s() < 1.0


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    import parkseq
    import parkseq.cli
    from tracer import Tracer

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "parkseq"]
    before = [dict(vars(m)) for m in modules]
    before_methods = dict(vars(parkseq.SparsePolynomial))
    tracer = Tracer()
    tracer.install()
    assert parkseq.count_by_formula((2, 2, 1), 4) == 288
    assert parkseq.counting.count_by_formula is not before[modules.index(parkseq.counting)][
        "count_by_formula"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert dict(vars(parkseq.SparsePolynomial)) == before_methods
    assert tracer.calls["counting.formula"] == 1


@pytest.mark.parametrize("workload", ["cli", "symbolic"])
def test_exact_counters_repeat_between_runs(workload):
    first, second = bench(ROOT, workload, trace=1), bench(ROOT, workload, trace=1)
    assert first.returncode == 0, first.stdout[-3000:] + first.stderr[-3000:]
    assert second.returncode == 0, second.stdout[-3000:] + second.stderr[-3000:]
    a, b = result_line(first)["metrics"], result_line(second)["metrics"]
    for name in EXACT_COUNTERS:
        assert a[name]["value"] == b[name]["value"], name
    assert a["poly.mul.term_pairs"]["value"] > 0
    assert a["strehl.expand.calls"]["value"] > 0


def test_tampered_expected_value_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    key = sorted(expected["cli"])[0]
    expected["cli"][key]["sha256"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = bench(root, "cli")
    assert proc.returncode != 0
    result = result_line(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAIL workload=cli seed=3 job=" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    proc = bench(root, "oracle")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
