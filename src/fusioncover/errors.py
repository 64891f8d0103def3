"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A requested computation exceeds a configured size budget."""


class PartitionError(ValueError):
    """A partition violates the structural requirement P_1 = {identity}."""


class GroupFileError(ValueError):
    """A group labeling file is malformed; message carries line diagnostics."""


class CountCheckError(ArithmeticError):
    """Pair counts failed their integrality or sum check, or the canonical
    cover's SU(2) level check failed: an internal fault, never a verdict
    about the cover."""
