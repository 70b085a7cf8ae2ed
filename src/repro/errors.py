"""Exception hierarchy shared across the package.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers embedding the library can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class SimulationError(ReproError):
    """Raised when a simulation is driven incorrectly at runtime."""


class WorkloadError(ReproError):
    """Raised when a workload generator or trace file is malformed."""


class ClusterError(ReproError):
    """Raised when a cluster simulation is misconfigured or driven badly."""


class StoreError(ReproError):
    """Raised when the durable persistence layer hits a malformed log or
    snapshot, or is asked to recover from a directory with nothing in it."""
