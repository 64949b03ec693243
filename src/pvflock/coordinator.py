"""Fleet coordination: turn a PV profile into per-building power bounds.

The aggregate target is a band around the PV generation: when the plant
produces pv > 0 kW the fleet's total consumption must land inside
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
both bounds pin to hvac_max and the step is flagged infeasible.

The band depends on the PV output alone, never on the fleet's state, so
building_bounds() computes it for a whole run at once, one entry per
control period.  The bounds are the same for every building, so the run
clamps a period's raw iP controls onto [-hi, -lo], the thermal image of
[lo, hi], with one np.maximum and one np.minimum (lo <= hi, so the order
does not matter), and keeps the clamped values for the plant and the
estimator.

building_bounds does not check its inputs: FleetConfig checks its fields
when it is built, and the PV column comes from a checked source (a
PvSourceConfig peak or a loaded CSV that rejects negative and non-finite
rows).
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
            raise ConfigurationError("fleet.n_buildings must be >= 1")
        for key, value in (("epsilon_kw", self.epsilon), ("hvac_max_kw", self.hvac_max),
                           ("sample_dt_hours", self.sample_dt)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"fleet.{key} must be positive and finite")


def building_bounds(pv, cfg: FleetConfig):
    """Aggregate band and per-building bounds for PV outputs pv (kW).

    Returns (band_lo, band_hi, lo, hi, infeasible), each shaped like pv:
    the aggregate band, then every building's electrical bounds and whether
    the even split could not fit the HVAC range.
    """
    pv = np.asarray(pv, dtype=float)
    eps, hvac_max = cfg.epsilon, cfg.hvac_max
    active = pv > 0
    band_lo = np.where(active, np.maximum(0.0, pv - eps), 0.0)
    band_hi = np.where(active, pv + eps, 0.0)
    raw_lo = (pv - eps) / cfg.n_buildings
    raw_hi = (pv + eps) / cfg.n_buildings
    # an inert band leaves the whole HVAC range; an active one has raw_hi >= max(raw_lo, 0),
    # so it is empty only when raw_lo > hvac_max, and then both bounds pin to hvac_max
    lo = np.where(active, np.clip(raw_lo, 0.0, hvac_max), 0.0)
    hi = np.where(active, np.minimum(raw_hi, hvac_max), hvac_max)
    infeasible = active & (raw_lo > hvac_max)
    return band_lo, band_hi, lo, hi, infeasible

