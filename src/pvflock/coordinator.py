"""Fleet coordination: turn a PV profile into per-building power bounds.

The aggregate target is a band around the current PV generation: when the
plant produces pv > 0 kW the fleet's total consumption must land inside
[max(0, pv - epsilon), pv + epsilon].  With n identical buildings the band
is divided evenly, so each building's electrical draw p = -u (COP 1, so
thermal extraction and electrical consumption coincide in magnitude) is
clamped to

    [pv/n - epsilon/n, pv/n + epsilon/n]  intersected with  [0, hvac_max].

Summing n values from the per-building interval can never leave the
aggregate band, which is the whole tracking argument: no optimization, no
communication beyond the shared bounds.  When pv = 0 the band is inert and
buildings regulate freely inside [0, hvac_max].  If the intersection above
is empty (PV so large that even hvac_max per building cannot absorb it)
the bounds collapse to the nearest feasible point and the step is flagged
infeasible.

The bounds are the same for every building, so the clamp is one array
operation over the fleet.  The simulation clamps each period's raw iP
controls, integrates the plant under the clamped values and keeps those
applied values for the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class FleetConfig:
    """Sizing and timing shared by every building in the fleet."""

    n_buildings: int = 13
    epsilon: float = 1.0
    hvac_max: float = 3.0
    sample_dt: float = 1.0 / 6.0

    def __post_init__(self) -> None:
        if self.n_buildings < 1:
            raise ConfigurationError("n_buildings must be >= 1")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigurationError("epsilon must be positive")
        if not (self.hvac_max > 0 and math.isfinite(self.hvac_max)):
            raise ConfigurationError("hvac_max must be positive")
        if not (self.sample_dt > 0 and math.isfinite(self.sample_dt)):
            raise ConfigurationError("sample_dt must be positive")


@dataclass(frozen=True)
class PowerBand:
    """Aggregate consumption band for one step (kW)."""

    lower: float
    upper: float
    pv_active: bool


@dataclass(frozen=True)
class BuildingBounds:
    """Per-building electrical bounds for one step (kW)."""

    lower: float
    upper: float
    infeasible: bool = False


def power_band(pv: float, epsilon: float) -> PowerBand:
    """Aggregate band for the current PV output."""
    if not (math.isfinite(pv) and pv >= 0):
        raise ConfigurationError(f"pv must be finite and >= 0, got {pv}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigurationError("epsilon must be positive")
    if pv == 0:
        return PowerBand(lower=0.0, upper=0.0, pv_active=False)
    return PowerBand(lower=max(0.0, pv - epsilon), upper=pv + epsilon, pv_active=True)


def per_building_bounds(band: PowerBand, cfg: FleetConfig) -> BuildingBounds:
    """Split the aggregate band evenly and intersect with the HVAC range."""
    if not band.pv_active:
        return BuildingBounds(lower=0.0, upper=cfg.hvac_max)
    n = cfg.n_buildings
    pv = band.upper - cfg.epsilon  # band.upper is always pv + epsilon
    raw_lo = (pv - cfg.epsilon) / n
    raw_hi = (pv + cfg.epsilon) / n
    lo = max(0.0, raw_lo)
    hi = min(raw_hi, cfg.hvac_max)
    if lo > hi:
        # PV beyond what the fleet can absorb: pin to the nearest limit.
        if raw_lo > cfg.hvac_max:
            return BuildingBounds(lower=cfg.hvac_max, upper=cfg.hvac_max, infeasible=True)
        return BuildingBounds(lower=0.0, upper=0.0, infeasible=True)
    return BuildingBounds(lower=lo, upper=hi)


def clamp_to_bounds(u_raw, b: BuildingBounds):
    """Project raw thermal controls (one float or an array) onto the electrical bounds.

    Returns (p, u_applied, clamped) with p = -u_applied in [b.lower, b.upper].
    A positive u_raw (a heating wish) maps to the smallest admissible draw.
    """
    if not np.all(np.isfinite(u_raw)):
        raise ConfigurationError("u_raw must be finite")
    p_want = -u_raw
    p = np.minimum(np.maximum(p_want, b.lower), b.upper)
    return p, -p, p != p_want
