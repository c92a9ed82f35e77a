"""Exception hierarchy shared by all betahole modules."""


class BetaHoleError(Exception):
    """Base class for all domain errors raised by this package."""


class LastDigitMismatch(BetaHoleError):
    """plus() applied to a word whose last digit cannot be flipped."""


class PeriodicWord(BetaHoleError):
    """A rotation operation was applied to a word that is a power of a shorter word."""


class LevelTooLarge(BetaHoleError):
    """Requested Farey level exceeds the configured maximum."""


class NotFarey(BetaHoleError):
    """The word is not a Farey word."""


class DegenerateFarey(NotFarey):
    """The word is one of the degenerate Farey words '0' or '1'."""


class NotFareyReflection(BetaHoleError):
    """The reflection of the word is not a non-degenerate Farey word."""


class NotInQ(BetaHoleError):
    """The sequence is not the quasi-greedy expansion of 1 for any base."""


class NotLyndon(BetaHoleError):
    """The word is not a Lyndon word."""


class NotMaximalRotation(BetaHoleError):
    """The word is not the maximal cyclic rotation of an aperiodic word."""


class OutOfRange(BetaHoleError):
    """A numeric argument lies outside its required range."""


class StateCapExceeded(BetaHoleError):
    """Automaton compilation would need more states than the configured cap."""


class CertificateFailed(BetaHoleError):
    """A certificate that a result relies on did not check out."""


class FinitenessCertificateFailed(CertificateFailed):
    """The last digits of a z-set's sorted rotations do not read 1...10...0."""
