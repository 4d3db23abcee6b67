"""Starting the CLI loads no module that only some subcommands need.

Every ``parkseq`` call pays for ``import parkseq.cli``.  ``dataclasses``
drags in ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``);
``hashlib`` loads OpenSSL and ``json`` its encoder, though only symbolic
digest cells and ``--format json`` use them.  This checks which modules are
loaded, not how long loading takes.
"""

import subprocess
import sys
from pathlib import Path

import parkseq

SRC = Path(parkseq.__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "hashlib", "json")


def test_importing_the_cli_skips_heavy_modules():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import parkseq.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
