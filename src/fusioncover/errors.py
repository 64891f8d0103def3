"""Exception types, and the search budget, shared across the package."""

# Cyclic orders above this need an explicit budget override (CLI:
# --allow-large).  It lives here, beside CapacityError, so the CLI can name it
# in its help without loading the search module.
DEFAULT_SEARCH_BUDGET = 24


class CapacityError(ValueError):
    """A requested computation exceeds a configured size budget."""


class PartitionError(ValueError):
    """A partition violates the structural requirement P_1 = {identity}."""


class GroupFileError(ValueError):
    """A group labeling file is malformed; message carries line diagnostics."""


class CountCheckError(ArithmeticError):
    """Pair counts failed their integrality or sum check: an internal fault,
    never a verdict about the cover."""
