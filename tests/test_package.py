"""The package's exports: every name in ``__all__`` is loaded from its
submodule on first use and is that submodule's own object."""

import ast
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fusioncover


def test_all_lists_the_export_table():
    assert len(fusioncover.__all__) == len(set(fusioncover.__all__)) == 32
    assert set(fusioncover.__all__) == set(fusioncover._EXPORTS)


def test_paper_model_is_not_exported():
    # The per-vector model lives in tests/paper_model.py, as the oracle.
    moved = ("BitVector", "ClassLabel", "Coset", "class_members", "class_of",
             "orbit_sum_classes", "phi", "quotient_cosets", "sym_diff_weight_identity",
             "unitary_discrete_series")
    for name in moved:
        assert name not in fusioncover.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(fusioncover, name)
    for prop in ("a_coords", "b_coords", "all_ones"):
        assert not hasattr(fusioncover.GroupContext, prop)


def test_vector_algebra_is_not_shipped():
    # Products are read off the integer fusion tensor; no command multiplies
    # rational coefficient vectors or digit tuples, lists elements as digit
    # tuples, or reads pair counts off an algebra rather than its map.
    assert "Rational" not in fusioncover.__all__
    with pytest.raises(AttributeError, match="Rational"):
        fusioncover.Rational
    assert not hasattr(import_module("fusioncover.minimal_model"), "algebra_product")
    removed = {
        "FusionTensor": ("products_of",),
        "AbelianGroupSpec": ("identity", "add", "negate", "index_of", "digit_matrix", "elements"),
        "Sector": ("label",),
    }
    for cls, attrs in removed.items():
        for attr in attrs:
            assert not hasattr(getattr(fusioncover, cls), attr), (cls, attr)
    # The partition algebra is its map's support, a ``FusionTensor``.
    assert "PartitionAlgebra" not in fusioncover.__all__
    with pytest.raises(AttributeError, match="PartitionAlgebra"):
        fusioncover.PartitionAlgebra
    assert fusioncover.FusionTensor._fields == ("sectors", "coefficients")
    assert "__str__" not in vars(fusioncover.Sector)


def test_verlinde_algebra_is_the_fusion_tensor():
    # Its structure constants in the sector basis are the fusion
    # coefficients, so no wrapper class is shipped.
    assert "VerlindeAlgebra" not in fusioncover.__all__
    with pytest.raises(AttributeError, match="VerlindeAlgebra"):
        fusioncover.VerlindeAlgebra
    tensor = fusioncover.fusion_tensor(fusioncover.ModelParams(3, 4))
    assert fusioncover.verlinde_algebra(tensor) is tensor


@pytest.mark.parametrize("name", fusioncover.__all__)
def test_export_is_the_submodule_object(name):
    module = import_module(f"fusioncover.{fusioncover._EXPORTS[name]}")
    assert getattr(fusioncover, name) is getattr(module, name)
    assert vars(fusioncover)[name] is getattr(module, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from fusioncover import *", namespace)
    assert all(namespace[name] is getattr(fusioncover, name) for name in fusioncover.__all__)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fusioncover.no_such_name
    with pytest.raises(ImportError):
        exec("from fusioncover import no_such_name", {})


def test_submodules_import_by_name_in_a_fresh_process():
    code = (
        "import sys\n"
        "from fusioncover import _kernels, cli\n"
        "assert cli is sys.modules['fusioncover.cli']\n"
        "assert _kernels is sys.modules['fusioncover._kernels']\n"
        "print(cli.main.__module__, _kernels.pair_support.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fusioncover.cli fusioncover._kernels\n"


def numpy_imports(node) -> list[int]:
    """Lines of the numpy imports under an AST node that run: the body of an
    ``if TYPE_CHECKING:`` block is left out, its ``else`` is not."""
    lines = []
    if isinstance(node, ast.Import):
        lines += [node.lineno for alias in node.names if alias.name.split(".")[0] == "numpy"]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        lines += [node.lineno] if node.module.split(".")[0] == "numpy" else []
    checking = isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING")
    for child in node.orelse if checking else ast.iter_child_nodes(node):
        lines += numpy_imports(child)
    return lines


def test_only_kernels_imports_numpy():
    # ``_kernels`` builds every array the package holds; any other module
    # names numpy in annotations alone.
    src = Path(fusioncover.__file__).parent
    found = {path.name: numpy_imports(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("_kernels.py")
    assert found == dict.fromkeys(found, [])


def test_numpy_imports_are_found_where_they_run():
    code = (
        "import os, numpy.linalg\n"
        "from numpy import zeros\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "else:\n"
        "    import numpy as np\n"
        "def f():\n"
        "    from numpy.typing import ArrayLike\n"
        "    from .numpy import x\n"
        "    import numpyro\n"
    )
    assert numpy_imports(ast.parse(code)) == [1, 2, 7, 9]


def test_two_group_cover_does_not_import_kernels():
    # The canonical cover's labels are plain Python and its support is
    # proved, so the module builds no array and counts nothing.
    tree = ast.parse((Path(fusioncover.__file__).parent / "two_group_cover.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [part for alias in node.names for part in alias.name.split(".")]
    assert "minimal_model" in names and "_kernels" not in names
