"""Exception hierarchy shared across the package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class NetworkError(ReproError):
    """Malformed boolean network (cycles, dangling references, bad ops)."""


class BlifError(ReproError):
    """Syntactic or semantic problem in a BLIF file."""


class MappingError(ReproError):
    """The mapper was given an input it cannot handle."""


class LibraryError(ReproError):
    """Problem constructing or querying a technology library."""


class BenchError(ReproError):
    """Invalid benchmark-suite configuration (unknown mapper, circuit...)."""


class QorError(ReproError):
    """Malformed or incompatible QoR run record / baseline file."""


class FlowError(ReproError):
    """Invalid flow composition (unknown pass, domain mismatch, bad spec)."""


class PerfError(ReproError):
    """Unreadable or malformed trace input (``chortle perf top|flame``)."""


class VerificationError(ReproError):
    """A mapped circuit is not functionally equivalent to its source."""


class SatError(ReproError):
    """Malformed CNF input or an exhausted solver resource budget."""


class LintError(ReproError):
    """Invalid lint configuration, or a gated lint run found diagnostics."""


class ExplainError(ReproError):
    """Malformed decision-provenance record or invalid explain request."""
