"""Exception hierarchy shared by all betahole modules."""


class BetaHoleError(Exception):
    """Base class for all domain errors raised by this package."""


class BadWord(BetaHoleError, ValueError):
    """A word or sequence does not have the shape an operation needs."""


class NotInQ(BetaHoleError):
    """The sequence is not the quasi-greedy expansion of 1 for any base."""


class OutOfRange(BetaHoleError):
    """A numeric argument lies outside its required range."""


class StateCapExceeded(BetaHoleError):
    """Automaton compilation would need more states than the configured cap."""


class CertificateFailed(BetaHoleError):
    """A certificate that a result relies on did not check out."""
