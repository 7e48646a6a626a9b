"""Exception hierarchy.

Three coarse families matter to callers (and to the CLI, which maps them to
exit codes): configuration problems, mathematical-domain problems, and
census/cache integrity problems.  Everything derives from OrbitctlError so
library users can catch one base class.
"""

from __future__ import annotations


class OrbitctlError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(OrbitctlError):
    """Malformed or contradictory run configuration."""

    exit_code = 2


class MathDomainError(OrbitctlError):
    """A quantity was requested outside its mathematical domain."""

    exit_code = 3


class CensusError(OrbitctlError):
    """Orbit census or cache integrity failure."""

    exit_code = 4


# map evaluation ---------------------------------------------------------

class PoleError(MathDomainError):
    """Evaluation too close to a pole of the map."""


# orbit enumeration ------------------------------------------------------

class DegreeOverflowError(MathDomainError):
    """d**n exceeds the cap for the requested enumeration method."""


class NonConvergenceError(MathDomainError):
    """An iterative solve did not reach tolerance within its budget."""


class OrbitMatchingError(MathDomainError):
    """Forward iteration failed to land on a listed periodic point."""


class IncompleteCensusError(CensusError):
    """The d**n fixed-point accounting failed or an entry is missing."""


class VersionMismatchError(CensusError):
    """Orbit cache file has an unknown version or corrupted header."""


class FingerprintMismatchError(CensusError):
    """Orbit cache file belongs to a different map."""


# thermodynamics ---------------------------------------------------------

class AlphaOutOfRangeError(MathDomainError):
    """Requested deviation rate lies outside the estimated spectrum."""


class DegenerateError(MathDomainError):
    """Vanishing variance (lattice/circle-like data); profile undefined."""


class OverflowGuard(MathDomainError):
    """A periodic-orbit sum would overflow double precision."""


class BracketError(MathDomainError):
    """Root bracketing failed (no sign change on the search interval)."""


# transfer operator ------------------------------------------------------

class CriticalValueError(MathDomainError):
    """Mesh point too close to a critical value; preimages collide."""


class NormalizationError(MathDomainError):
    """Normalized operator failed the row-sum identity at tolerance."""


# counting ---------------------------------------------------------------

class ScheduleError(MathDomainError):
    """Window schedule violates the sub-exponential shrinking check."""


class DomainError(MathDomainError):
    """Argument outside the domain of a special function."""
