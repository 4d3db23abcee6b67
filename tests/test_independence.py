"""The closed form and the brute force share no code with the polynomial engine.

The recurrence, the specialization of t and the identities all rest on the
linear forms of ``strehl._forms``.  ``core`` and ``counting`` are the routes
they are checked against, so neither may import ``poly`` or ``strehl``, even
inside a function.

Printing is ``poly``'s alone: no other module may name a polynomial's print
template: no name of theirs holds ``_template``, so the rest of the package
only relabels and compares polynomials.

Every check of an integer input goes through ``core._is_int``, which refuses
``bool``: no other function tests for ``bool`` but ``cli._cell``, which
formats one.

``poly`` keeps no module-level memo: it uses neither ``functools.lru_cache``
nor ``functools.cache``, so every memo it fills lives on a polynomial and is
freed with it.

Each refusal is written once: no two ``raise`` statements in the package
give the same message text, so a check that two entry points share is one
function they both call.

The rest of the package keeps to ``poly``'s public face: of ``poly``'s
private names it imports only ``_relabelled`` and ``_sum_of_products``, and
it reaches no attribute whose name starts with one underscore but a named
tuple's own methods, so a packed key or a memo slot is ``poly``'s alone.

Every private module-level name is read somewhere: each function, class or
assignment whose name starts with ``_`` is loaded, imported or read as an
attribute by some module of the package, so no helper outlives its callers.
"""

import ast
from collections import Counter
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


def _template_names(source: str) -> list[str]:
    """Every name, attribute, import or string in ``source`` that holds ``_template``."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named.append(node.id)
        elif isinstance(node, ast.Attribute):
            named.append(node.attr)
        elif isinstance(node, ast.alias):
            named += [node.name, node.asname or ""]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.append(node.value)
    return [name for name in named if "_template" in name]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "poly")
)
def test_only_poly_names_the_print_template(module):
    assert _template_names((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "p._template",
        "_template = None",
        "from .poly import _template",
        "getattr(p, '_template')",
        "from parkseq.poly import _template_of as build",
        "from .poly import _with_template",
        "def f():\n    return poly._template_of(p)\n",
    ],
)
def test_the_template_guard_sees_every_form(source):
    assert _template_names(source)


# the only functions that may test for ``bool``, by module
BOOL_TESTS = {"core": ["_is_int"], "cli": ["_cell"]}


def _bool_tests(source: str) -> list[str | None]:
    """The innermost function around each ``isinstance(..., bool)`` call in ``source``,
    ``None`` for one outside any function."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_only_the_integer_rule_tests_for_bool(module):
    assert _bool_tests((PACKAGE / f"{module}.py").read_text()) == BOOL_TESTS.get(module, [])


@pytest.mark.parametrize(
    "source, scopes",
    [
        ("ok = isinstance(x, bool)\n", [None]),
        ("def f(x):\n    return isinstance(x, int) and not isinstance(x, bool)\n", ["f"]),
        ("def f(x):\n    return isinstance(x, (int, bool))\n", ["f"]),
        ("class C:\n    def m(self, x):\n        def g():\n            return isinstance(x, bool)\n"
         "        return isinstance(x, bool) or g()\n", ["g", "m"]),
    ],
    ids=["module level", "int rule", "tuple of types", "nested functions"],
)
def test_the_bool_scan_sees_each_call(source, scopes):
    assert _bool_tests(source) == scopes


CACHES = ("lru_cache", "cache")


def _cache_uses(source: str) -> list[str]:
    """Every ``functools`` cache that ``source`` imports, names or reaches as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "lru_cache":
            found.append(node.id)
    return found


def test_poly_keeps_no_module_level_cache():
    assert _cache_uses((PACKAGE / "poly.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n",
        "from functools import cache as remember\n",
        "@functools.lru_cache(maxsize=4)\ndef f(x):\n    return x\n",
        "@functools.cache\ndef f(x):\n    return x\n",
        "_f = lru_cache(maxsize=4)(g)\n",
        "import functools as ft\n_f = ft.cache(g)\n",
    ],
    ids=["import", "import as", "decorator call", "decorator", "call", "aliased module call"],
)
def test_the_cache_scan_sees_each_use(source):
    assert _cache_uses(source)


def test_the_cache_scan_passes_a_plain_dict_named_cache():
    assert _cache_uses("cache = {}\ncache[1] = 2\n") == []


def _raise_messages(source: str) -> list[str]:
    """The message text of each ``raise`` in ``source`` whose exception is called with a
    string first: an f-string's constant parts, with ``{}`` for each field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr):
            found.append("".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in message.values
            ))
        elif isinstance(message, ast.Constant) and isinstance(message.value, str):
            found.append(message.value)
    return found


def _shared_messages(sources: list[str]) -> list[str]:
    """Every message text that more than one ``raise`` across ``sources`` gives."""
    texts = Counter(text for source in sources for text in _raise_messages(source))
    return sorted(text for text, count in texts.items() if count > 1)


def test_every_refusal_is_written_once():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert _shared_messages(sources) == []


def test_the_message_scan_sees_a_shared_text():
    source = (
        'def f(n):\n    if n < 1:\n        raise ValueError(f"n must be >= 1, got {n!r}")\n'
        'def g(k):\n    raise TypeError(f"n must be >= 1, got {k}") from None\n'
        'raise ValueError("plain")\n'
    )
    assert sorted(_raise_messages(source)) == ["n must be >= 1, got {}"] * 2 + ["plain"]
    assert _shared_messages([source]) == ["n must be >= 1, got {}"]
    assert _shared_messages([source, 'raise KeyError("plain")\n']) == [
        "n must be >= 1, got {}", "plain"
    ]


def _private_definitions(source: str) -> list[str]:
    """The private names ``source`` defines at module level: functions, classes
    and assignment targets whose name starts with ``_`` but not ``__``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(source: str) -> tuple[set[str], dict[str, set[str]], set[str]]:
    """What ``source`` reads: the names it loads, the names it imports from each
    sibling module (``from .mod import ...``), and the attributes it reads."""
    loads, imports, attributes = set(), {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            imports.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return loads, imports, attributes


def _unread_private_names(modules: dict[str, str]) -> list[str]:
    """Every private module-level name, as ``module.name``, that its own module does
    not load, no sibling imports from it, and no module reads as an attribute."""
    reads = {name: _reads(source) for name, source in modules.items()}
    attributes = set().union(*(r[2] for r in reads.values()))
    unread = []
    for module, source in modules.items():
        imported = set().union(*(r[1].get(module, set()) for r in reads.values()))
        read = reads[module][0] | imported | attributes
        unread += [f"{module}.{name}" for name in _private_definitions(source) if name not in read]
    return sorted(unread)


def test_every_private_name_is_read_somewhere():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(modules) == []


def test_the_private_name_scan_sees_an_unread_helper():
    source = (
        "_LIMIT = 3\n_CACHE: dict = {}\n_A, (_B, _C) = 1, (2, 3)\n__all__ = []\n"
        "def _helper():\n    return _LIMIT + _A\n"
        "def _left_behind():\n    return _helper()\n"
        "class _Box:\n    pass\n"
    )
    unread = ["mod._B", "mod._Box", "mod._C", "mod._CACHE", "mod._left_behind"]
    assert _unread_private_names({"mod": source}) == unread
    other = "from .mod import _C\nfrom . import mod\nmod._CACHE.clear()\n_left_behind = 1\n"
    unread = ["mod._B", "mod._Box", "mod._left_behind", "other._left_behind"]
    assert _unread_private_names({"mod": source, "other": other}) == unread
    # a name read in one module does not count for a copy of it left in another
    copy = "def _helper():\n    return 0\n"
    assert _unread_private_names({"mod": source, "copy": copy})[0] == "copy._helper"


# the private names of ``poly`` that the rest of the package may import
POLY_FACE = {"_relabelled", "_sum_of_products"}
NAMEDTUPLE_METHODS = {"_asdict", "_replace", "_fields", "_make"}


def _private_reaches(source: str) -> list[str]:
    """Every private name ``source`` imports from ``poly`` but those of ``POLY_FACE``,
    and every attribute it reaches whose name starts with one underscore, but a
    named tuple's methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level, node.module) == (1, "poly") or node.module == "parkseq.poly"
        ):
            found += [
                alias.name
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in POLY_FACE
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in NAMEDTUPLE_METHODS
        ):
            found.append(node.attr)
    return found


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "poly")
)
def test_the_package_keeps_to_the_public_face_of_poly(module):
    assert _private_reaches((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .poly import _renamed, _relabelled, _sum_of_products", ["_renamed"]),
        ("from parkseq.poly import _unchecked_variable as make", ["_unchecked_variable"]),
        ("def f(p):\n    return p._terms\n", ["_terms"]),
        ("from . import poly\nring = poly._packed(terms)[0]\n", ["_packed"]),
        ("p._keyed = None\n", ["_keyed"]),
        (
            "from .poly import _relabelled, _sum_of_products\nfrom .strehl import _sides\n"
            "r._asdict(), r._replace(a=1), T._fields, T._make(x), type(r).__name__\n",
            [],
        ),
    ],
    ids=["private import", "absolute import", "attribute", "module attribute", "attribute store",
         "the allowed names"],
)
def test_the_poly_face_scan_sees_each_reach(source, found):
    assert _private_reaches(source) == found
