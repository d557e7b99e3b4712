"""Exception taxonomy shared by all spinlab modules.

Validation failures map to CLI exit code 2, resource guards to exit code 3.
"""


class SpinLabError(Exception):
    """Base class for all spinlab errors."""


class ValidationError(SpinLabError):
    """Bad input data or parameters (CLI exit code 2)."""


class ResourceGuard(SpinLabError):
    """A size guard tripped; the computation was refused (CLI exit code 3)."""


# --- spin system validation ---

class SchemaError(ValidationError):
    pass


class NonSymmetricInteractions(ValidationError):
    pass


class NonPositiveActivity(ValidationError):
    pass


class AllZeroInteractions(ValidationError):
    pass


class NonPositiveMultiplier(ValidationError):
    pass


class EmptyProjectedSpace(ValidationError):
    pass


# --- catalog ---

class ParamOutOfRange(ValidationError):
    pass


# --- patterns / parameters ---

class SpinSpaceTooLarge(ResourceGuard):
    pass


class Alt3OnWeightedSystem(ValidationError):
    pass


# --- kbipartite ---

class TooLarge(ResourceGuard):
    pass


class GroundSetTooLarge(ResourceGuard):
    pass


class NotNormalized(ValidationError):
    pass


# --- lattice ---

class UnsupportedLattice(ValidationError):
    """The evaluator does not run on this kind or dimension of lattice."""


class NoInfinityOnTorus(ValidationError):
    pass


# --- gibbs ---

class StateSpaceTooLarge(ResourceGuard):
    pass


class EmptySupport(ValidationError):
    pass


class NoAdmissibleStart(ValidationError):
    pass


class IrreducibilityUnknown(ValidationError):
    pass


# --- breakup ---

class DominantPatternsNotEquivalent(ValidationError):
    pass


class BoundaryNotInPattern(ValidationError):
    pass
