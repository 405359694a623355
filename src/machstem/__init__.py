"""Steady shock-reflection studies with a modal DG solver on overset grids."""

__version__ = "0.1.0"

from .errors import (
    MachstemError, ConfigError, DivergenceError, MeasurementError,
    AssemblyError, InvalidStateError,
)
