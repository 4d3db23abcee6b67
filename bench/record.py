"""Record the pinned answers in bench/expected.json from the current program.

    python3 bench/record.py

Run it only when a change to the program's output is deliberate: the CLI's
exit code and stdout sha256 per catalog invocation, and the term count and
sha256 of each identity side over {1..k} for the symbolic workload.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import BENCH, ROOT, _child, _last_json
from workloads import CLI_CATALOG, EXPECTED_PATH, IDENTITIES, SYMBOLIC_GROUPS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import parkseq

    sides = {}
    for name in IDENTITIES:
        for k in sorted(set(SYMBOLIC_GROUPS)):
            lhs, rhs = parkseq.identity_sides(name, parkseq.IndexSet.first(k))
            sides[f"{name}/{k}"] = {
                side: [len(p.terms), hashlib.sha256(str(p).encode()).hexdigest()]
                for side, p in (("lhs", lhs), ("rhs", rhs))
            }
    cli = {}
    for argv in CLI_CATALOG:
        out = _last_json(_child([str(BENCH / "cli_child.py"), str(ROOT), "0", "-", *argv]),
                         "cli child")
        cli[" ".join(argv)] = {"exit": out["exit"], "sha256": out["sha256"]}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump({"sides": sides, "cli": cli}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
