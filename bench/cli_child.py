"""One ``parkseq`` CLI invocation in a fresh interpreter, timed from inside.

    python3 -I bench/cli_child.py ROOT TRACE SPANS_PATH ARG...

The job's time is the ``import parkseq.cli`` plus the call of ``main(ARG...)``;
the harness's own imports, the reference loop (``speed.py``) timed right
after the import, and the tracer's installation in between are left out.
Stdout is captured in memory and reduced to its sha256 and length.  With
TRACE 1 the public names are wrapped after the import and the spans are
written to SPANS_PATH.  Prints one JSON object.
"""

import sys
import time

REFERENCE_CHUNKS = 5


def main() -> int:
    root, trace, spans_path = sys.argv[1:4]
    argv = sys.argv[4:]
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    import parkseq.cli as cli

    import_s = time.perf_counter() - start

    import hashlib
    import io
    import json
    import resource
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    from tracer import Tracer

    ref_s = speed.samples(REFERENCE_CHUNKS)

    src = Path(root, "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"parkseq was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if trace == "1" else None
    captured = io.BytesIO()
    sys.stdout = io.TextIOWrapper(captured, encoding="utf-8", write_through=True)
    if tracer is not None:
        tracer.install()
    try:
        main_start = time.perf_counter()
        code = cli.main(argv)
        job_s = import_s + time.perf_counter() - main_start
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
        sys.stdout.detach()
        sys.stdout = sys.__stdout__
    out = captured.getvalue()
    result = {
        "import_s": import_s,
        "ref_s": ref_s,
        "job_s": job_s,
        "exit": code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
