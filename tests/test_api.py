"""The public names of the package, pinned so any change shows in a diff,
and the polynomial engine's names, which load on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import parkseq

SRC = Path(parkseq.__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "CarSizeVector",
    "Collision",
    "CountReport",
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "IndexSet",
    "LotLayout",
    "Overflow",
    "ParameterAssignment",
    "Parked",
    "ParkingOutcome",
    "SYMBOLIC_BUDGET",
    "SparsePolynomial",
    "TRAILER",
    "Variable",
    "W",
    "Z",
    "abel_rothe_specialize",
    "count_by_enumeration",
    "count_by_formula",
    "count_no_trailer",
    "count_report",
    "f_as_t_specialization",
    "identity_sides",
    "identity_value_sides",
    "is_parking_sequence",
    "monomial",
    "partitions_into_two",
    "poly",
    "random_identity_check",
    "s_poly",
    "s_value",
    "simulate_parking",
    "t_poly",
    "t_value",
    "verify_recurrence",
    "x_var",
    "y_var",
]


def test_public_names_are_pinned():
    assert sorted(parkseq.__all__) == PUBLIC_NAMES


def _fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter that finds the package."""
    probe = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_engine_loads_on_first_use_with_every_name():
    lines = _fresh(
        "import parkseq\n"
        "engine = ('parkseq.poly', 'parkseq.strehl')\n"
        "public = set(parkseq.__all__) | {'core', 'counting', 'poly', 'strehl'}\n"
        "shown = lambda: {name for name in dir(parkseq) if not name.startswith('_')}\n"
        "print(*(m in sys.modules for m in engine), len(set(parkseq.__all__) - set(vars(parkseq))))\n"
        "print(shown() == public)\n"
        "parkseq.t_poly\n"
        "print(*(m in sys.modules for m in engine), len(set(parkseq.__all__) - set(vars(parkseq))))\n"
        "print(shown() == public)\n"
    )
    assert lines == ["False False 22", "True", "True True 0", "True"]


@pytest.mark.parametrize(
    "load",
    [
        "import parkseq.strehl",
        "from parkseq.poly import Z",
        "import parkseq.cli\nparkseq.cli.main(['verify', 'easy', '--n-max', '1'])",
        "from parkseq import *",
    ],
    ids=["import-strehl", "from-the-poly-module", "cli-verify", "star"],
)
def test_parkseq_poly_stays_the_function_however_the_engine_loads(load):
    """Loading the submodule ``parkseq.poly`` binds it on the package; the
    package keeps the function ``poly`` under that name instead."""
    lines = _fresh(
        f"{load}\n"
        "import parkseq, parkseq.strehl\n"
        "assert parkseq.poly is parkseq.strehl.poly, parkseq.poly\n"
        "print(parkseq.poly(3))\n"
    )
    assert lines[-1] == "3"


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        parkseq.nonesuch  # noqa: B018
