"""Three-state RC thermal model of the fleet's identical buildings.

States are the room air temperature T1, an interior-mass temperature T2
(floors, partitions, furnishings) and a wall-core temperature T3.  Inputs
are the cooling power u (kW, <= 0 extracts heat) and the disturbance triple
w = (d1, d2, d3): outdoor temperature (degC), solar gain (kW) and internal
gain (kW).  With capacitances c1..c3 (kJ/degC) and conductances k1, k2,
k4 and k5 (kW/degC) the dynamics are, in degC per second,

    dT1/dt = [ (k1 + k2) * (T2 - T1) + k5 * (T3 - T1) + u + d2 + d3 ] / c1
    dT2/dt = [ (k1 + k2) * (T1 - T2) + d2 ] / c2
    dT3/dt = [ k5 * (T1 - T3) + k4 * (d1 - T3) ] / c3

scaled by 3600 so the package-wide time base is hours.  The solar gain d2
feeds both the air and the mass node.  The default constants are a
residential-scale realization of this structure, sized so that a 0..3 kW
cooling unit has real authority over the air node (3600/c1 = 2.4 degC/h per
kW, the same order as the controller gain alpha = 5) while interior mass
and wall core filter the day on multi-hour scales.  Other sets, such as the
literature constants of a large office building, are reachable through the
`building.` config section.

Integration is classical RK4 with zero-order-hold inputs over each control
period, split into substeps so the fastest node stays well resolved.  The
model is linear, so dx/dt = A x + B u + C w with the matrices returned by
build_matrices().  Because the plant is linear and the inputs are held
constant over the period, the whole substep loop collapses to a single
affine update x+ = x + S (A x + f).  transition_map computes A, B, C and S
once per run; a run also computes the disturbance forcing C w of every
period in one product before its loop.  A period then only evaluates the
state-dependent part: the forcing B u + C w and the update.  The tests
cross-check this against a plain per-substep loop and a derivative written
straight from the ODEs.

Everything here takes plain arrays: one building's state is the length-3
array (T1, T2, T3), a fleet is a (3, n) block with one column per building,
and C w is the length-3 forcing of the disturbance held over the period.  A
single building is simply a (3, 1) block.  rk4_fleet trusts its settings:
BuildingParams checks the constants when it is built and ScenarioConfig
checks the period and the substep count.  check_sane guards the computed
states, with one min and one max test per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PlantDivergenceError

#: temperatures outside this range mean the integration has gone nonsensical
SANITY_RANGE = (-20.0, 60.0)


@dataclass(frozen=True)
class BuildingParams:
    """RC constants: capacitances in kJ/degC, conductances in kW/degC."""

    c1: float = 1500.0
    c2: float = 6000.0
    c3: float = 4500.0
    k1: float = 0.25
    k2: float = 0.65
    k4: float = 0.035
    k5: float = 0.12

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "k1", "k2", "k4", "k5"):
            if not (getattr(self, name) > 0 and math.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} must be positive and finite")


def build_matrices(p: BuildingParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State-space form dx/dt = A x + B u + C w, per-hour units.

    A is 3x3, B is the length-3 input vector, C maps (d1, d2, d3).
    """
    k12 = p.k1 + p.k2
    a = np.array(
        [
            [-(k12 + p.k5) / p.c1, k12 / p.c1, p.k5 / p.c1],
            [k12 / p.c2, -k12 / p.c2, 0.0],
            [p.k5 / p.c3, 0.0, -(p.k5 + p.k4) / p.c3],
        ]
    )
    b = np.array([1.0 / p.c1, 0.0, 0.0])
    c = np.array(
        [
            [0.0, 1.0 / p.c1, 1.0 / p.c1],
            [0.0, 1.0 / p.c2, 0.0],
            [p.k4 / p.c3, 0.0, 0.0],
        ]
    )
    return 3600.0 * a, 3600.0 * b, 3600.0 * c


class TransitionMap(NamedTuple):
    """One control period of the plant: A, B, C and the RK4 update S."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    s: np.ndarray


def transition_map(p: BuildingParams, dt: float, substeps: int) -> TransitionMap:
    """Matrices A, B, C and the precomputed RK4 update S over one control
    period, in increment form.

    For the linear plant with constant forcing f = B u + C w, one RK4
    substep of size h is exactly the affine map

        x+ = phi x + gamma f,   phi = I + P + P^2/2 + P^3/6 + P^4/24,
                                gamma = h (I + P/2 + P^2/6 + P^3/24),

    with P = h A; note phi = I + gamma A.  Chaining n substeps gives
    x+ = M x + S f with M = phi^n and S = (phi^(n-1) + ... + I) gamma, and
    M = I + S A carries over, so the whole period is the increment

        x+ = x + S (A x + f).

    This is the same polynomial a per-substep loop evaluates, just without
    the loop, and the increment form makes any state where the derivative
    evaluates to exactly zero an exact fixed point of the update.
    """
    a, b, c = build_matrices(p)
    h = dt / substeps
    eye = np.eye(3)
    pw = h * a
    phi = eye + pw + pw @ pw / 2.0 + pw @ pw @ pw / 6.0 + pw @ pw @ pw @ pw / 24.0
    gamma = h * (eye + pw / 2.0 + pw @ pw / 6.0 + pw @ pw @ pw / 24.0)
    s = np.zeros((3, 3))
    for _ in range(substeps):
        s = phi @ s + gamma
    return TransitionMap(a, b, c, s)


def rk4_fleet(states: np.ndarray, u: np.ndarray, cw: np.ndarray, tm: TransitionMap) -> np.ndarray:
    """Advance a (3, n) block of building states by one control period under ZOH inputs.

    u is one control per building; cw = tm.c @ w is the forcing of the
    disturbance w = (d1, d2, d3) that every building shares over the period.
    Returns a new array.  Evaluates the classical RK4 substep recursion
    through the transition map tm.
    """
    a, b, _, s = tm
    forcing = (b[:, None] * u[None, :]) + cw[:, None]
    return states + s @ (a @ states + forcing)


def check_sane(states: np.ndarray, t: float) -> None:
    """Raise PlantDivergenceError naming the first building of a (3, n) state
    block that left SANITY_RANGE, reached at time t."""
    lo, hi = SANITY_RANGE
    # NaN fails both comparisons, so it takes the naming path too
    if lo <= states.min() and states.max() <= hi:
        return
    bad = ~np.all((states >= lo) & (states <= hi), axis=0)
    i = int(np.argmax(bad))
    t1, t2, t3 = states[:, i]
    raise PlantDivergenceError(
        f"building {i} left the sane range at t = {t:.4f} h (T = {t1:.2f}, {t2:.2f}, {t3:.2f})"
    )
