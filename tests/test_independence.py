"""The closed form and the brute force share no code with the polynomial engine.

The recurrence, the specialization of t and the identities all rest on the
linear forms of ``strehl._forms``.  ``core`` and ``counting`` are the routes
they are checked against, so neither may import ``poly`` or ``strehl``, even
inside a function.
"""

import ast
from pathlib import Path

import pytest

import parkseq

PACKAGE = Path(parkseq.__file__).parent
ENGINE = ("parkseq.poly", "parkseq.strehl")


def _engine_imports(source: str) -> list[str]:
    """Every module named by an import in ``source`` that is part of the engine."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = "parkseq" + (f".{base}" if base else "")
            named += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return [
        name
        for name in named
        if any(name == engine or name.startswith(f"{engine}.") for engine in ENGINE)
    ]


@pytest.mark.parametrize("module", ["core", "counting"])
def test_independent_routes_do_not_import_the_engine(module):
    assert _engine_imports((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .strehl import _join",
        "from . import poly",
        "from .poly import SparsePolynomial as P",
        "import parkseq.strehl",
        "from parkseq import poly",
        "def f():\n    from .strehl import t_value\n",
    ],
)
def test_the_guard_sees_every_import_form(source):
    assert _engine_imports(source)
