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

The model is linear, so dx/dt = A x + B u + C w with the matrices returned
by build_matrices().  With the inputs held over each control period (zero-
order hold), the period's exact solution is the affine update
x+ = x + S (A x + B u + C w) with S = A^-1 (e^(A dt) - I), which
transition_map computes once per run: a shortfall in comfort or tracking
belongs to the controller, not to an integrator.  The run writes a period
as that increment: one product of [A | B] with the state and control, the
disturbance forcing C w of the period (computed for every period before
the loop) added, and one product with S added to the state.  The tests
check S against scipy's matrix exponential.

Everything here takes plain arrays: one building's state is the length-3
array (T1, T2, T3) and a fleet is a (3, n) block with one column per
building.  transition_map trusts its settings: BuildingParams checks the
constants when it is built and FleetConfig checks the period.  check_sane
guards the computed states with one min and one max test, over one
period's (3, n) block or over a stack of them, which may be empty.
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
    """One control period of the plant: A, B, C and the exact update S."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    s: np.ndarray


def transition_map(p: BuildingParams, dt: float) -> TransitionMap:
    """Matrices A, B, C and the exact zero-order-hold update S over one
    control period of dt hours, in increment form.

    With the forcing f = B u + C w held over the period, the state moves to
    x+ = e^(A dt) x + S f with S = A^-1 (e^(A dt) - I), and e^(A dt) = I + S A,
    so the whole period is the increment

        x+ = x + S (A x + f),

    which makes any state where the derivative evaluates to exactly zero an
    exact fixed point of the update.  A = diag(1/c) L with L symmetric, so
    with d = sqrt(c) the similar matrix diag(d) A diag(1/d) = Q diag(lam) Q^T
    is symmetric, its eigenvalues lam are real and negative, and
    S = diag(1/d) Q diag(expm1(lam dt) / lam) Q^T diag(d).
    """
    a, b, c = build_matrices(p)
    d = np.sqrt([p.c1, p.c2, p.c3])
    lam, q = np.linalg.eigh(d[:, None] * a / d)
    s = (q * (np.expm1(lam * dt) / lam)) @ q.T / d[:, None] * d
    return TransitionMap(a, b, c, s)


def check_sane(states: np.ndarray, t) -> None:
    """Raise PlantDivergenceError naming the first building of a (3, n) state
    block that left SANITY_RANGE, reached at time t.

    An (m, 3, n) stack of blocks reached at the m times t is checked with
    the same one min and one max; the earliest bad block is named.
    """
    lo, hi = SANITY_RANGE
    # NaN fails both comparisons, so it takes the naming path too
    if lo <= states.min(initial=lo) and states.max(initial=hi) <= hi:
        return
    blocks = states.reshape(-1, 3, states.shape[-1])
    ok = np.all((blocks >= lo) & (blocks <= hi), axis=1)
    j, i = divmod(int(np.argmin(ok)), ok.shape[1])
    t1, t2, t3 = blocks[j, :, i]
    raise PlantDivergenceError(
        f"building {i} left the sane range at t = {np.ravel(t)[j]:.4f} h "
        f"(T = {t1:.2f}, {t2:.2f}, {t3:.2f})"
    )
