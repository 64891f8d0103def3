"""Exception types shared across the package."""


class InputError(ValueError):
    """Input the package refuses: a model, an option or a group file it
    cannot take, or a computation over a size budget.  The CLI exits 2 on
    this alone; any other exception, a bare ``ValueError`` included, is an
    internal fault (exit 3)."""


class CapacityError(InputError):
    """A requested computation exceeds a configured size budget."""


class PartitionError(ValueError):
    """A partition violates the structural requirement P_1 = {identity}."""


class GroupFileError(InputError):
    """A group labeling file is malformed; message carries line diagnostics."""


class CountCheckError(ArithmeticError):
    """Pair counts failed their integrality or sum check, or the canonical
    cover's SU(2) level check failed: an internal fault, never a verdict
    about the cover."""
