"""One pass of an in-process workload, in a fresh interpreter.

    python3 -I bench/worker.py ROOT WORKLOAD SEED TRACE SPANS_PATH

Times ``import parkseq`` from ROOT/src first, before anything else is
imported, and the reference loop (``speed.py``) right after it.  Then runs
the seeded job list once, with one reference chunk before each job, checks
every answer, and prints one JSON object.  With WORKLOAD ``import`` it only
times the import.  With TRACE 1 it wraps the public names for the pass and
writes the spans to SPANS_PATH.
"""

import sys
import time

IMPORT_REFERENCE_CHUNKS = 5


def main() -> int:
    root, workload, seed, trace, spans_path = sys.argv[1:6]
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    import parkseq

    import_s = time.perf_counter() - start

    import json
    import resource
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    import workloads
    from tracer import Tracer

    import_ref_s = speed.samples(IMPORT_REFERENCE_CHUNKS)

    src = Path(root, "src").resolve()
    if src not in Path(parkseq.__file__).resolve().parents:
        print(f"parkseq was imported from {parkseq.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s, "import_ref_s": import_ref_s}
    if workload != "import":
        result.update(run_pass(parkseq, speed, workloads, Tracer() if trace == "1" else None,
                               workload, int(seed), spans_path))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def run_pass(parkseq, speed, workloads, tracer, workload: str, seed: int, spans_path: str) -> dict:
    jobs = workloads.jobs_for(workload, seed)
    expected = workloads.load_expected()
    job_s, step_s, ref_s, answers, failures = [], [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for index, job in enumerate(jobs):
            ref_s.append(speed.chunk_s())
            start = time.perf_counter()
            summary = None
            try:
                answer = workloads.run_job(parkseq, job)
                job_s.append(time.perf_counter() - start)
                summary = workloads.summarize(job, answer)
                reason = workloads.check(job, summary, expected)
            except Exception as exc:  # a job that raises or answers malformed fails
                if len(job_s) == index:
                    job_s.append(time.perf_counter() - start)
                reason = f"raised {exc!r}"
            answers.append(summary)
            if reason is not None:
                failures.append({"job": index, "reason": reason})
            step_s.append(time.perf_counter() - start)  # the job and its check
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"job_s": job_s, "step_s": step_s, "ref_s": ref_s, "answers": answers,
              "failures": failures}
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    sys.exit(main())
