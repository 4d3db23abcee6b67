"""parkseq benchmark: seeded, self-checking workloads timed end to end.

    python3 bench/run.py --workload oracle|symbolic|randomized|cli
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs the workload's whole job list in fresh interpreters
(one worker, or one child per CLI invocation) and checks every answer.
Passes repeat until ``--seconds`` have gone by, at least three times, and the
medians over passes are reported.  Times are scaled to a fixed reference
speed measured alongside them (``speed.py``); the raw medians are in the
detail line.  With ``--trace 1`` traced passes
alternate with untraced ones and the per-layer metrics are reported instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed job makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from workloads import WORKLOADS, check, jobs_for, load_expected  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20251
MIN_PASSES = 3  # untraced passes per untraced run
MIN_TRACED_PASSES = 2  # untraced and traced passes each, per traced run
SETUP_SAMPLES = 25
IMPORTS_PER_PASS = 2  # import-only workers after each untraced worker pass
TIME_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACE_DIR = ".bench_trace"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit).  Counts are exact per pass; times are the
# median over traced passes.
PER_LAYER = (
    ("core.simulate.calls", "count"), ("core.simulate.busy_s", "s"),
    ("counting.report.calls", "count"), ("counting.report.busy_s", "s"),
    ("counting.tuples_per_s", "1/s"), ("counting.tuples_scanned", "count"),
    ("counting.tuples_parked", "count"), ("counting.park_ratio", "ratio"),
    ("counting.formula.calls", "count"), ("counting.formula.busy_s", "s"),
    ("counting.recurrence.calls", "count"), ("counting.recurrence.splits", "count"),
    ("counting.recurrence.busy_s", "s"),
    ("counting.partitions.splits", "count"), ("counting.partitions.busy_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.busy_s", "s"), ("poly.add.busy_s", "s"),
    ("poly.mul.term_pairs", "count"), ("poly.mul.terms_out", "count"),
    ("poly.mul.merge_ratio", "ratio"), ("poly.peak_terms", "count"),
    ("poly.substitute.calls", "count"), ("poly.substitute.busy_s", "s"),
    ("poly.evaluate.busy_s", "s"), ("poly.eq.busy_s", "s"), ("poly.str.busy_s", "s"),
    ("poly.random_for.busy_s", "s"),
    ("strehl.expand.calls", "count"), ("strehl.expand.self_s", "s"),
    ("strehl.expand.repeat_ratio", "ratio"),
    ("strehl.sides.self_s", "s"), ("strehl.specialize.busy_s", "s"),
    ("strehl.value.calls", "count"), ("strehl.value.busy_s", "s"),
    ("strehl.random_check.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """Run one fresh interpreter and wait for it; -I keeps the environment out."""
    return subprocess.run([sys.executable, "-I", *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def _last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def worker_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass of an in-process workload in a fresh worker."""
    spans = Path(ROOT, TRACE_DIR, f"{workload}-seed{seed}.tsv")
    proc = _child([str(BENCH / "worker.py"), str(ROOT), workload, str(seed),
                   "1" if traced else "0", str(spans)])
    result = _last_json(proc, f"{workload} worker")
    result["import_samples"] = [result["import_s"] * speed.scale(result["import_ref_s"])]
    result["raw_import_samples"] = [result["import_s"]]
    if workload != "import":
        scale = result["scale"] = speed.scale(result["ref_s"])
        result["raw_wall_s"] = sum(result["step_s"])
        result["wall_s"] = result["raw_wall_s"] * scale
        result["step_s"] = [s * scale for s in result["step_s"]]
        result["raw_job_s"] = result["job_s"]
        result["job_s"] = [s * scale for s in result["job_s"]]
        result["stdout_bytes"] = 0
    return result


def cli_pass(jobs: list[dict], seed: int, traced: bool) -> dict:
    """One pass of the CLI workload: one fresh child per invocation, in order."""
    expected = load_expected()
    job_s, step_s, answers, failures, imports, rss, traces, ref_s = [], [], [], [], [], [], [], []
    raw_imports = []
    stdout_bytes = 0
    for index, job in enumerate(jobs):
        spans = Path(ROOT, TRACE_DIR, f"cli-seed{seed}-job{index}.tsv")
        started = time.perf_counter()
        proc = _child([str(BENCH / "cli_child.py"), str(ROOT), "1" if traced else "0",
                       str(spans), *job["argv"]])
        try:
            summary = _last_json(proc, "cli child")
        except (HarnessError, ValueError) as exc:  # the CLI crashed: a failed job
            job_s.append(time.perf_counter() - started)
            step_s.append(job_s[-1])
            answers.append(None)
            failures.append({"job": index, "reason": str(exc)})
            continue
        job_s.append(summary["job_s"])
        ref_s += summary["ref_s"]
        imports.append(summary["import_s"] * speed.scale(summary["ref_s"]))
        raw_imports.append(summary["import_s"])
        rss.append(summary["rss_kb"])
        stdout_bytes += summary["stdout_bytes"]
        if "trace" in summary:
            traces.append(summary["trace"])
        answers.append({"exit": summary["exit"], "sha256": summary["sha256"]})
        reason = check(job, answers[-1], expected)
        if reason is not None:
            failures.append({"job": index, "reason": reason})
        # the child from spawn to exit, and the check, without its reference chunks
        step_s.append(time.perf_counter() - started - sum(summary["ref_s"]))
    scale = speed.scale(ref_s) if ref_s else 1.0
    result = {"wall_s": sum(step_s) * scale, "raw_wall_s": sum(step_s), "scale": scale,
              "step_s": [s * scale for s in step_s], "job_s": [s * scale for s in job_s],
              "raw_job_s": job_s, "answers": answers,
              "failures": failures, "import_samples": imports, "raw_import_samples": raw_imports,
              "rss_kb": max(rss, default=0), "stdout_bytes": stdout_bytes}
    if traced:
        result["trace"] = merge_traces(traces)
    return result


def merge_traces(traces: list[dict]) -> dict:
    """Sum per-process trace summaries; the peak term count is a maximum."""
    groups: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        for group, stats in trace["groups"].items():
            into = groups.setdefault(group, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                into[key] += value
        for key, value in trace["counters"].items():
            if key == "poly.peak_terms":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"groups": groups, "counters": counters, "spans": sum(t["spans"] for t in traces)}


def percentile(values: list[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolated between ranks (pct in steps of 0.1)."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest ladder percentile with at least ten jobs beyond it in the
    fewest jobs a run pools (MIN_PASSES passes)."""
    pooled = jobs_per_pass * MIN_PASSES
    for pct in TAIL_LADDER:
        if pooled * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def layer_metrics(p: dict, untraced_wall: float, cli: bool) -> dict:
    """Per-layer metric values of one traced pass ``p``."""
    groups, counters = p["trace"]["groups"], p["trace"]["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        group, _, key = name.rpartition(".")
        if key == "calls":
            out[name] = groups.get(group, {}).get(key, 0)
        elif key in ("busy_s", "self_s"):
            out[name] = groups.get(group, {}).get(key, 0) * p["scale"]
        else:
            out[name] = counters.get(name, 0)
    out.update({
        "counting.tuples_per_s": ratio(out["counting.tuples_scanned"],
                                       out["counting.report.busy_s"]),
        "counting.park_ratio": ratio(out["counting.tuples_parked"],
                                     out["counting.tuples_scanned"]),
        "poly.mul.merge_ratio": ratio(out["poly.mul.terms_out"], out["poly.mul.term_pairs"]),
        "strehl.expand.repeat_ratio": ratio(counters.get("strehl.expand.repeats", 0),
                                            out["strehl.expand.calls"]),
        "cli.import_s": statistics.median(p["import_samples"]) if cli else 0.0,
        "cli.stdout_bytes": p["stdout_bytes"],
        "trace.overhead_ratio": ratio(p["wall_s"], untraced_wall),
    })
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Repeat passes for ``seconds``; return the metrics and the run's detail."""
    jobs = jobs_for(workload, seed)
    if traced:
        Path(ROOT, TRACE_DIR).mkdir(exist_ok=True)

    def one_pass(with_trace: bool) -> dict:
        if workload == "cli":
            return cli_pass(jobs, seed, with_trace)
        return worker_pass(workload, seed, with_trace)

    worker_pass("import", seed, False)  # compiles bytecode, which users pay once, not per run
    plain: list[dict] = []
    tracing: list[dict] = []
    imports: list[dict] = []  # import-only workers, spread over the run
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(plain) >= min_passes and elapsed >= seconds) or (plain and elapsed >= TIME_LIMIT_S):
            break
        plain.append(one_pass(False))
        if traced:
            tracing.append(one_pass(True))
        elif workload != "cli":
            imports += [worker_pass("import", seed, False) for _ in range(IMPORTS_PER_PASS)]

    failures = [(i, f["job"], f["reason"])
                for i, p in enumerate(plain + tracing) for f in p["failures"]]
    for i, p in enumerate(tracing, start=len(plain)):
        failures += [(i, j, "traced answer differs from the untraced one")
                     for j, (want, got) in enumerate(zip(plain[0]["answers"], p["answers"]))
                     if want != got]
    if traced:
        metrics = traced_metrics(plain, tracing, failures, workload == "cli")
    else:
        metrics = end_to_end_metrics(plain, imports, len(jobs), seed, start)
    attempted = len(jobs) * (len(plain) + len(tracing))
    failed = len({(i, j) for i, j, _ in failures})
    for i, j, reason in failures:
        where = f"input={json.dumps(jobs[j])}" if j >= 0 else "counters"
        print(f"FAIL workload={workload} seed={seed} job={j} pass={i} {where}: {reason}")
    detail = {
        "workload": workload,
        "passes": len(plain),
        "pass_raw_wall_s": [p["raw_wall_s"] for p in plain],
        "pass_scale": [p["scale"] for p in plain],
        "traced_passes": len(tracing),
        "jobs_per_pass": len(jobs),
        "job_tail_pct": tail_percentile(len(jobs)),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "environment": environment(ROOT, seed),
    }
    return metrics, detail


def end_to_end_metrics(plain: list[dict], imports: list[dict], jobs_per_pass: int, seed: int,
                       start: float) -> dict:
    while (sum(len(p["import_samples"]) for p in plain + imports) < SETUP_SAMPLES
           and time.perf_counter() - start < TIME_LIMIT_S):
        imports.append(worker_pass("import", seed, False))
    setup = [s for p in plain + imports for s in p["import_samples"]]
    raw_setup = [s for p in plain + imports for s in p["raw_import_samples"]]
    job_s = [s for p in plain for s in p["job_s"]]
    return {
        "setup_s": statistics.median(setup),
        # a typical pass: each job's median over passes, so a stall in one
        # pass moves only that pass's sample of the job it hit
        "wall_s": sum(statistics.median(steps) for steps in zip(*(p["step_s"] for p in plain))),
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": percentile(job_s, tail_percentile(jobs_per_pass)),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024.0,
        "job_samples": len(job_s),
        "raw_setup_s": statistics.median(raw_setup),
        "raw_job_p50_s": statistics.median(s for p in plain for s in p["raw_job_s"]),
        "setup_samples": len(setup),
    }


def traced_metrics(plain: list[dict], tracing: list[dict], failures: list, cli: bool) -> dict:
    """Per-layer metrics; exact counts must agree across traced passes."""
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    per_pass = [layer_metrics(p, untraced_wall, cli) for p in tracing]
    out = {}
    for name, unit in PER_LAYER:
        values = [m[name] for m in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                failures.append((len(plain), -1, f"{name} differs between passes: {values}"))
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parkseq" / "__init__.py").is_file():
        print(f"error: no parkseq source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        metrics, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = PER_LAYER if args.trace else END_TO_END
    for name, unit in names:
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio {detail['fail_ratio']:.6g} ratio")
    detail.update({k: v for k, v in metrics.items() if k not in dict(names)})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
