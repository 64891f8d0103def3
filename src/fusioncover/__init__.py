"""Exact minimal-model fusion rules and their covers by finite abelian groups.

Each exported name is imported from its submodule on first use (PEP 562), so
``import fusioncover`` loads no submodule and no numpy, and a caller pays only
for the modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("FAIL", "PASS", "AbelianGroupSpec", "ClosureViolation", "CoverCertificate", "CoverMap",
         "UncoveredTriple", "verify_cover"),
        "certificates",
    ),
    **dict.fromkeys(("multiplicity_profile", "search_cyclic_covers"), "cover_search"),
    **dict.fromkeys(("CapacityError", "GroupFileError", "InputError", "PartitionError"), "errors"),
    **dict.fromkeys(
        ("FusionTensor", "ModelParams", "Sector", "admissible_range", "canonicalize",
         "central_charge", "conformal_weight", "fusion_products", "fusion_tensor",
         "is_p_admissible", "is_pq_admissible", "kac_table", "sectors", "verlinde_algebra"),
        "minimal_model",
    ),
    **dict.fromkeys(
        ("GroupContext", "canonical_cover", "is_isomorphic_to_verlinde", "partition_algebra"),
        "two_group_cover",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
