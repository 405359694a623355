"""Exception types shared across the package.

Each error maps to a process exit code used by the command-line driver:
configuration problems exit 2, divergence 3, measurement failures (no
shock system detected among them) 4 and overset assembly failures 5.
"""


class MachstemError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(MachstemError):
    """Invalid, unknown or out-of-range configuration input."""

    exit_code = 2


class DivergenceError(MachstemError):
    """A march blew up (non-finite or invalid states, runaway residual)."""

    exit_code = 3


class MeasurementError(MachstemError):
    """Front extraction or classification could not produce an answer, or
    there is nothing to measure: the coarse stage flagged no cell, so no
    shock system was detected and no patch can be built.

    ``diagnostics`` carries intermediate data (the front points, their
    peak gradients and the least Mach number behind each) so a failed
    measurement can be inspected.
    """

    exit_code = 4

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class AssemblyError(MachstemError):
    """Overset grid assembly failed (insufficient overlap, orphan nodes)."""

    exit_code = 5


class InvalidStateError(MachstemError):
    """A flow state with non-positive density or pressure was produced.

    ``location`` carries a human-readable hint (block name, element index)
    when available.
    """

    exit_code = 3

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} at {location}")
        self.location = location
