"""Exception types shared across the package."""

from __future__ import annotations


class PvflockError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PvflockError):
    """Invalid parameter, option or config-file content."""


class PlantDivergenceError(PvflockError):
    """A simulated building left the physically sane temperature range."""


class ProfileError(PvflockError):
    """A CSV profile is malformed or queried outside its span."""
