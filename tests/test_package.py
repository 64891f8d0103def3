"""The package's exports: every name in ``__all__`` is loaded from its
submodule on first use and is that submodule's own object."""

import subprocess
import sys
from importlib import import_module

import pytest

import fusioncover


def test_all_lists_the_export_table():
    assert len(fusioncover.__all__) == len(set(fusioncover.__all__)) == 31
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
        "print(cli.main.__module__, _kernels.pair_counts.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fusioncover.cli fusioncover._kernels\n"
