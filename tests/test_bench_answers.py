"""The benchmark's answer checks, run in-process on the default seed.

``bench/workloads.py`` checks every job against a route that shares no code
with the engine, or against the identity-side digests pinned in
``bench/expected.json`` (sizes 3 to 5).  Running the in-process workloads
here keeps those checks in this suite, not only in the benchmark's own
slower tests; ``symbolic`` runs on a second seed too.  The ``cli``
workload runs each command in a child process; here each runs through
``cli.main`` in-process, against the exit code and stdout sha256 pinned
for it in ``bench/expected.json``, and with no argparse parser built: the
benchmark's CLI traffic is all well-formed command lines.
"""

import hashlib
from pathlib import Path

import pytest

import parkseq
from parkseq import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def failed_jobs(monkeypatch, workload, seed):
    """The (index, job, reason) of every job of the list that is answered wrongly."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    expected = workloads.load_expected()
    jobs = workloads.jobs_for(workload, seed)
    assert jobs
    failures = []
    for index, job in enumerate(jobs):
        summary = workloads.summarize(job, workloads.run_job(parkseq, job))
        reason = workloads.check(job, summary, expected)
        if reason is not None:
            failures.append((index, job, reason))
    return failures


@pytest.mark.parametrize("workload", ["oracle", "symbolic", "randomized"])
def test_every_job_of_the_default_seed_is_answered_correctly(monkeypatch, workload):
    assert failed_jobs(monkeypatch, workload, 1) == []


def test_the_symbolic_jobs_of_a_second_seed_are_answered_correctly(monkeypatch):
    """The pinned side digests are over {1..k}, so a second seed's ground
    sets check the sides relabelled onto other labels."""
    assert failed_jobs(monkeypatch, "symbolic", 2) == []


def test_every_cli_command_gives_its_pinned_exit_code_and_stdout(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    pinned = workloads.load_expected()["cli"]

    def no_parser(argv):
        raise AssertionError(f"{argv} is not read without argparse")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    answers, expected = {}, {}
    for argv in workloads.CLI_CATALOG:
        key = " ".join(argv)
        code = cli.main(list(argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        answers[key], expected[key] = {"exit": code, "sha256": digest}, pinned[key]
    assert answers == expected
