"""Starting the CLI loads no module, builds no class and adds no argument
that only some subcommands need, and a well-formed command line loads no
parser.

Every ``parkseq`` call pays for ``import parkseq.cli``.  ``dataclasses``
drags in ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``);
``hashlib`` loads OpenSSL and ``json`` its encoder, though only symbolic
digest cells and ``--format json`` use them.  A ``typing.NamedTuple`` class
costs about twice a ``collections.namedtuple`` subclass to create, and
``typing.Union`` and ``typing.Optional`` build alias objects where a ``|``
union is one builtin call.  A well-formed command line is read without
argparse, which with ``gettext`` and the ``locale`` its first message
lookup imports costs more than the command itself; argparse loads only for
help, usage errors and the forms the reader declines, and then fills in
only the invoked subcommand.  These check which modules are loaded, which
names the package uses and which options a call adds, not how long any of
it takes.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import parkseq
from parkseq.cli import _build_parser

SRC = Path(parkseq.__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "hashlib", "json")
PARSER = ("argparse", "gettext", "locale")
SLOW_TYPING = {"NamedTuple", "Optional", "Union"}
# options that count, verify or table define and park does not
NOT_PARK = {
    "--enumerate", "--budget", "--force", "suite", "--set", "--n-max", "--y-max", "--z-max",
    "--random", "--trials", "--seed", "--family", "--car", "--pattern",
}


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


def _names(tree: ast.AST) -> set[str]:
    """Every plain name, attribute and imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@pytest.mark.parametrize("path", sorted((SRC / "parkseq").glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_the_slow_typing_constructs(path):
    assert _names(ast.parse(path.read_text())) & SLOW_TYPING == set()


@pytest.mark.parametrize(
    "source",
    [
        "from typing import NamedTuple\n",
        "import typing\nclass P(typing.NamedTuple):\n    a: int\n",
        "from typing import Optional as O\n",
        "Cell = typing.Union[int, None]\n",
    ],
)
def test_the_name_scan_sees_each_construct(source):
    assert _names(ast.parse(source)) & SLOW_TYPING


def test_park_adds_only_its_own_arguments(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def recorded(self, *names, **kwargs):
        added.extend(names)
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
    argv = ["park", "--sizes", "1,2", "--z", "1", "--prefs", "3,3"]
    args = _build_parser(argv).parse_args(argv)
    code = args.command(args)
    assert (code, capsys.readouterr().out) == (1, "overflow: car 2 found no empty spot"
                                                  " at or after its preference\n")
    assert {"--format", "--sizes", "--z", "--prefs"} <= set(added)
    assert set(added) & NOT_PARK == set()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2"], []),
        (["park", "-h"], ["argparse", "gettext", "locale"]),
    ],
    ids=["well-formed", "help"],
)
def test_only_help_and_errors_load_the_parser(argv, loaded):
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from parkseq.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, *(m for m in {PARSER!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0", *loaded]
