"""Exception types shared across the package."""


class PhotonPostError(Exception):
    """Base class for all errors raised by photonpost."""


class NotNormalized(PhotonPostError):
    """Probabilities do not sum to one within tolerance."""


class NonSquare(PhotonPostError):
    """A square matrix was required."""


class DimensionTooLarge(PhotonPostError):
    """A problem exceeds the engine's basis or coefficient-array limits."""


class MismatchedTotals(PhotonPostError):
    """Row and column multiplicities must repeat to the same total."""


class BadModeIndex(PhotonPostError):
    """Mode index out of range or repeated."""


class NotUnitary(PhotonPostError):
    """Matrix is not unitary within tolerance."""


class DimensionMismatch(PhotonPostError):
    """Sizes of inputs, interferometer and pattern do not agree."""


class ZeroProbabilityPattern(PhotonPostError):
    """Requested figures of merit for an impossible detection pattern."""


class BadParameters(PhotonPostError):
    """Parameters outside their valid range, or serialized values of the wrong form."""


class DegenerateTheta(PhotonPostError):
    """First-stage mixing angle leaves nothing to purify."""


class BadDistributionShape(PhotonPostError):
    """Photon-number distribution does not have the required support."""


class BadCount(PhotonPostError):
    """A photon or mode count, or a list of counts, is negative, repeated, unknown or empty."""


class NegativeWeight(PhotonPostError):
    """A weight that is a sum of non-negative terms is negative."""


class ConfigError(PhotonPostError):
    """Command configuration failed validation."""
