"""Exception types shared across the toolkit."""


class CollatzKitError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidTripletError(CollatzKitError):
    """Parameters violate the triplet domain (d >= 2, alpha > d, d-coprimality of residues...)."""


class NotWellFormedError(CollatzKitError):
    """The map of this triplet does not send every natural number to a natural number."""


class NotACycleError(CollatzKitError):
    """A claimed element list is not a periodic orbit of the map."""


class NoApplicableCaseError(CollatzKitError):
    """No constructor case applies to the given family parameters."""


class InvalidFamilyParamsError(CollatzKitError):
    """Family parameters violate their stated constraints."""


class IterateFormulaDomainError(CollatzKitError):
    """Closed-form iterate requested outside the formula's validity domain."""


class CoprimalityError(CollatzKitError):
    """gcd(d, alpha) = 1 is required for log_d(alpha) to be irrational."""


class BoundPreconditionError(CollatzKitError):
    """Lower-bound machinery requires gcd(d, alpha) = 1 and beta > 0."""


class MTooSmallError(CollatzKitError):
    """The threshold M is too small for the sign-flip bound (D_1(M) >= 0)."""


class PrecisionExhaustedError(CollatzKitError):
    """A certified comparison stayed ambiguous at the precision policy cap."""

    def __init__(self, message: str, ambiguous_index: int | None = None):
        super().__init__(message)
        self.ambiguous_index = ambiguous_index


class InvalidTargetsError(CollatzKitError):
    """A verification target is empty or fails the cycle-closure check."""


class ShortcutUnsoundError(CollatzKitError):
    """below-frontier shortcut enabled without a covered prefix [1, lo)."""


class DigestMismatchError(CollatzKitError):
    """Checkpoint digest does not match its embedded job description."""


class CheckpointError(CollatzKitError):
    """A checkpoint file is not a well-formed collatzkit checkpoint."""
