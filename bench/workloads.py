"""Seeded job lists, the program calls each job makes, and each job's check.

Every job list is a pure function of (workload, seed).  A job is a plain dict
so a failure can be printed and replayed by hand.  The fixed parts of each
list (which shapes of input, and how many of each) are chosen so that every
seed asks for the same amount of work; the seed picks the concrete fleets,
index sets, random points and the job order.

``run_job`` makes only public parkseq calls and is what a job's time covers.
``summarize`` and ``check`` are harness work: they reduce an answer to a
small JSON value and compare it with a route that shares no code with the
program, or with values recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from pathlib import Path

WORKLOADS = ("oracle", "symbolic", "randomized", "cli")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# oracle: (cars, lot length) shapes with 10^3 <= m^n <= 2*10^4, ten fleets each.
ORACLE_SHAPES = ((3, 10), (3, 11), (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (4, 11),
                 (5, 5), (5, 6), (5, 7))
ORACLE_ROUNDS = 10

# symbolic: one ground set per group, used by easy, sheffer and binomial;
# Abel-Rothe jobs (size, family) on ground sets of their own; specialization
# fleet sizes.  Thirteen groups of size 4 and these counts put the median job
# in the middle of the thirteen easy-on-4 jobs, and the 90th percentile in
# the middle of the four jobs that take 0.1-0.2 s (binomial on 5, s on 5,
# the first specialization on 6), so neither sits where one kind of job
# gives way to the next.
SYMBOLIC_GROUPS = (3,) + (4,) * 13 + (5, 5)
SYMBOLIC_ABEL = ((4, "s"), (5, "t"), (5, "s"))
SPECIALIZATION_NS = (4, 4, 5, 5, 6, 6)
IDENTITIES = ("easy", "sheffer", "binomial")

# randomized: positive jobs per ground-set size, two trials each, plus one
# negative control (one split omitted, so one trial) per size for each
# convolution identity.  A trial on k + 1 costs about two on k, so a control
# on k + 1 runs as long as a positive job on k.  These counts put the median
# job in the middle of the positives on 9 and the 90th percentile among
# those on 12, a few jobs away from the next kind of job on either side.
RANDOM_JOBS_PER_SIZE = {8: 2, 9: 7, 10: 3, 11: 1, 12: 4, 13: 1}
RANDOM_TRIALS = 2

# cli: every invocation runs in a fresh child; the seed only orders them.
CLI_CATALOG = (
    ("park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2"),
    ("park", "--sizes", "1,2,2", "--z", "1", "--prefs", "2,1,1", "--format", "json"),
    ("park", "--sizes", "3,1,2", "--z", "2", "--prefs", "4,1,1", "--format", "tsv"),
    ("park", "--sizes", "1,2", "--z", "1", "--prefs", "3,3"),
    ("count", "--sizes", "2,2,1", "--z", "4"),
    ("count", "--sizes", "3,1,2,2,1,3,1", "--z", "3", "--format", "json"),
    ("count", "--sizes", "2,1,1,2", "--z", "1", "--enumerate", "--format", "tsv"),
    ("count", "--sizes", "1,1,1,1,1", "--z", "1", "--enumerate"),
    ("count", "--sizes", "1,2,3,1", "--z", "2", "--enumerate", "--format", "json"),
    ("table", "--family", "ones", "--n-max", "8", "--z-max", "4"),
    ("table", "--family", "const", "--car", "3", "--n-max", "10", "--z-max", "3",
     "--format", "json"),
    ("table", "--family", "pattern", "--pattern", "2,1", "--format", "tsv"),
    ("verify", "recurrence"),
    ("verify", "recurrence", "--n-max", "2", "--y-max", "2", "--format", "json"),
    ("verify", "easy", "--n-max", "4"),
    ("verify", "sheffer", "--n-max", "3", "--format", "tsv"),
    ("verify", "binomial", "--set", "2,5,7,9", "--format", "json"),
    ("verify", "sheffer", "--set", "1,2,3,4,5,6,7,8", "--trials", "5", "--seed", "42"),
    ("verify", "binomial", "--random", "--set", "3,4,6,8,9", "--trials", "4",
     "--format", "tsv"),
    ("verify", "specialization", "--n-max", "4", "--y-max", "2", "--z-max", "3"),
    ("verify", "all", "--format", "json"),
)

_LABEL = re.compile(r"([xy])(\d+)(?:_(\d+))?")


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one workload.

    Jobs come in blocks that always run in their own order, and the blocks
    are shuffled.  For ``symbolic`` the shuffle has a fixed seed: which job
    fills the expansion cache, and so each job's time and the peak memory,
    then does not depend on the workload seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    order = random.Random(f"{workload}:order") if workload == "symbolic" else rng
    if workload == "oracle":
        blocks = _oracle_jobs(rng)
    elif workload == "symbolic":
        blocks = _symbolic_jobs(rng)
    elif workload == "randomized":
        blocks = _randomized_jobs(rng)
    elif workload == "cli":
        blocks = [[{"kind": "cli", "argv": list(argv)}] for argv in CLI_CATALOG]
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    order.shuffle(blocks)
    return [job for block in blocks for job in block]


def _oracle_jobs(rng: random.Random) -> list[list[dict]]:
    """Ten fleets per shape, one from each tenth of the shape's fleets ranked
    by parking count, so every seed gets the same spread of park ratios."""
    jobs = []
    for n, m in ORACLE_SHAPES:
        fleets = sorted(
            (closed_form(sizes, z), sizes, z)
            for sizes in itertools.product((1, 2, 3), repeat=n)
            for z in (1, 2, 3)
            if z - 1 + sum(sizes) == m
        )
        for r in range(ORACLE_ROUNDS):
            lo = r * len(fleets) // ORACLE_ROUNDS
            hi = max((r + 1) * len(fleets) // ORACLE_ROUNDS, lo + 1)
            _, sizes, z = rng.choice(fleets[lo:hi])
            jobs.append([{"kind": "count", "sizes": list(sizes), "z": z}])
    return jobs


def _ground_set(rng: random.Random, k: int, base: int) -> list[int]:
    """A seeded increasing k-set inside (base, base + 3k]."""
    return sorted(rng.sample(range(base + 1, base + 3 * k + 1), k))


def _symbolic_jobs(rng: random.Random) -> list[list[dict]]:
    blocks = []
    base = 0
    for k in SYMBOLIC_GROUPS:
        ground = _ground_set(rng, k, base)
        base += 3 * k
        blocks.append([{"kind": "sides", "identity": name, "A": ground} for name in IDENTITIES])
    for k, which in SYMBOLIC_ABEL:
        blocks.append([{"kind": "abel", "A": _ground_set(rng, k, base), "which": which,
                        "xi": rng.randint(1, 4), "eta": rng.randint(1, 4)}])
        base += 3 * k
    for n in SPECIALIZATION_NS:
        blocks.append([{"kind": "specialize", "sizes": [rng.randint(1, 3) for _ in range(n)],
                        "z": rng.randint(1, 3)}])
    return blocks


def _randomized_jobs(rng: random.Random) -> list[list[dict]]:
    jobs = []
    for name in IDENTITIES:
        for k, count in RANDOM_JOBS_PER_SIZE.items():
            for _ in range(count):
                jobs.append([{"kind": "random", "identity": name,
                              "A": sorted(rng.sample(range(1, 4 * k), k)),
                              "trials": RANDOM_TRIALS, "seed": rng.randrange(2**31)}])
            if name != "easy":
                ground = sorted(rng.sample(range(1, 4 * k), k))
                mask = rng.randrange(1 << k)
                omit = [[e for b, e in enumerate(ground) if mask >> b & 1],
                        [e for b, e in enumerate(ground) if not mask >> b & 1]]
                jobs.append([{"kind": "random", "identity": name, "A": ground,
                              "trials": RANDOM_TRIALS, "seed": rng.randrange(2**31),
                              "omit": omit}])
    return jobs


def run_job(pk, job: dict):
    """Make the job's parkseq calls and return the raw answer."""
    kind = job["kind"]
    if kind == "count":
        report = pk.count_report(job["sizes"], job["z"])
        no_trailer = pk.count_no_trailer(job["sizes"]) if job["z"] == 1 else None
        return report, no_trailer
    if kind == "sides":
        lhs, rhs = pk.identity_sides(job["identity"], job["A"])
        return lhs == rhs, len(lhs.terms), len(rhs.terms), str(lhs), str(rhs)
    if kind == "abel":
        return pk.abel_rothe_specialize(job["A"], job["which"], job["xi"], job["eta"])
    if kind == "specialize":
        return (pk.f_as_t_specialization(job["sizes"], job["z"]),
                pk.count_by_formula(job["sizes"], job["z"]))
    if kind == "random":
        omit = job.get("omit")
        return pk.random_identity_check(job["identity"], job["A"], job["trials"], job["seed"],
                                        omit=tuple(omit) if omit else None)
    raise ValueError(f"unknown job kind {kind!r}")


def closed_form(sizes, z: int) -> int:
    """The parking count written out by the harness: z * prod (z + s_k + n - k)."""
    n = len(sizes)
    if n == 0:
        return 1
    total, prefix = z, 0
    for k in range(1, n):
        prefix += sizes[k - 1]
        total *= z + prefix + n - k
    return total


def abel_rothe_coefficients(n: int, which: str, xi: int, eta: int) -> list[int]:
    """Coefficients (constant first) of z * prod_{a<n} or prod_{a<=n} of
    (z + a*eta + (n-a)*xi), multiplied out with plain integer lists."""
    coeffs = [0, 1] if which == "t" else [1]
    for a in range(1, n if which == "t" else n + 1):
        c = a * eta + (n - a) * xi
        coeffs = [c * lo + hi for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def canonical_digest(text: str, ground) -> str:
    """sha256 of str(p) with the labels of ``ground`` renamed to 1..k.

    Renaming is order-preserving, so the canonical text of an identity side
    over any k-set equals the text over {1..k}, which is what is recorded.
    """
    position = {str(a): str(i) for i, a in enumerate(ground, start=1)}

    def rename(match: re.Match) -> str:
        head = match.group(1) + position[match.group(2)]
        return head + "_" + position[match.group(3)] if match.group(3) else head

    return hashlib.sha256(_LABEL.sub(rename, text).encode()).hexdigest()


def summarize(job: dict, answer):
    """A small JSON value that stands for the answer (compared across runs)."""
    kind = job["kind"]
    if kind == "count":
        report, no_trailer = answer
        return [report.enumerated, report.formula, report.match, report.tuples_scanned,
                no_trailer]
    if kind == "sides":
        equal, lhs_terms, rhs_terms, lhs_text, rhs_text = answer
        return [equal, lhs_terms, canonical_digest(lhs_text, job["A"]),
                rhs_terms, canonical_digest(rhs_text, job["A"])]
    if kind == "abel":
        coeffs: dict[int, int] = {}
        for mono, c in answer.terms.items():
            if len(mono) > 1 or (mono and str(mono[0][0]) != "z"):
                return ["not univariate in z", str(answer)]
            coeffs[mono[0][1] if mono else 0] = c
        return [coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1)]
    if kind == "specialize":
        return list(answer)
    return answer


def check(job: dict, summary, expected: dict) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    kind = job["kind"]
    if kind == "count":
        enumerated, formula, match, scanned, no_trailer = summary
        want = closed_form(job["sizes"], job["z"])
        m = job["z"] - 1 + sum(job["sizes"])
        if not match or enumerated != want or formula != want:
            return f"enumerated={enumerated} formula={formula} match={match}, closed form {want}"
        if scanned != m ** len(job["sizes"]):
            return f"tuples_scanned={scanned}, expected {m}^{len(job['sizes'])}"
        if job["z"] == 1 and no_trailer != want:
            return f"count_no_trailer={no_trailer}, expected {want}"
        return None
    if kind == "sides":
        equal, lhs_terms, lhs_sha, rhs_terms, rhs_sha = summary
        pinned = expected["sides"].get(f"{job['identity']}/{len(job['A'])}")
        got = {"lhs": [lhs_terms, lhs_sha], "rhs": [rhs_terms, rhs_sha]}
        if not equal:
            return "lhs != rhs"
        if got != pinned:
            return f"sides {got} differ from the recorded {pinned}"
        return None
    if kind == "abel":
        want = abel_rothe_coefficients(len(job["A"]), job["which"], job["xi"], job["eta"])
        return None if summary == want else f"coefficients {summary}, expected {want}"
    if kind == "specialize":
        want = closed_form(job["sizes"], job["z"])
        return None if summary == [want, want] else f"{summary}, expected [{want}, {want}]"
    if kind == "random":
        want = "omit" not in job
        return None if summary is want else f"returned {summary}, expected {want}"
    if kind == "cli":
        pinned = expected["cli"].get(" ".join(job["argv"]))
        return None if summary == pinned else f"{summary} differs from the recorded {pinned}"
    raise ValueError(f"unknown job kind {kind!r}")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
