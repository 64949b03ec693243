"""Independent routes through the plant model, for checking pvflock.plant.

plant_derivative is written straight from the ODEs in pvflock.plant's
docstring, not from build_matrices; zoh_update is the exact period update
S that transition_map computes, taken from scipy's matrix exponential.
plant_period is the other side of those checks: one period as
run_simulation writes it.
OFFICE is the literature constant set for a large office building, on
which the pinned derivative and equilibrium values are computed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from pvflock.plant import BuildingParams, TransitionMap, build_matrices

OFFICE = BuildingParams(
    c1=9.356e5, c2=2.970e6, c3=6.695e5, k1=16.48, k2=108.5, k4=30.5, k5=23.04
)


def plant_derivative(x, u: float, w, p: BuildingParams) -> np.ndarray:
    """Right-hand side in degC per hour, written straight from the ODEs.

    x = (T1, T2, T3) and w = (d1, d2, d3) are length-3 sequences.
    """
    t1, t2, t3 = x
    d1, d2, d3 = w
    k12 = p.k1 + p.k2
    dt1 = (k12 * (t2 - t1) + p.k5 * (t3 - t1) + u + d2 + d3) / p.c1
    dt2 = (k12 * (t1 - t2) + d2) / p.c2
    dt3 = (p.k5 * (t1 - t3) + p.k4 * (d1 - t3)) / p.c3
    return 3600.0 * np.array([dt1, dt2, dt3])


def zoh_update(a: np.ndarray, dt: float) -> np.ndarray:
    """S = A^-1 (e^(A dt) - I) from scipy's matrix exponential.

    The top right block of exp([[A, I], [0, 0]] dt) is the integral of
    e^(A s) over the period, which is S; no eigendecomposition is involved.
    """
    aug = np.zeros((6, 6))
    aug[:3, :3], aug[:3, 3:] = a, np.eye(3)
    return expm(aug * dt)[:3, 3:]


def plant_period(states: np.ndarray, u: np.ndarray, cw: np.ndarray,
                 tm: TransitionMap) -> np.ndarray:
    """Advance a (3, n) block of states by one period as run_simulation does.

    The increment x + S ([A | B] (x, u) + C w) in the run's two einsum
    products, for the controls u and the disturbance forcing cw = C w.
    """
    f = np.einsum("ij,jn->in", np.column_stack([tm.a, tm.b]), np.vstack([states, u[None]]))
    f += cw[:, None]
    return np.einsum("ij,jn->in", tm.s, f) + states


def equilibrium(u: float, w, p: BuildingParams) -> np.ndarray:
    """Steady state (T1, T2, T3) for constant inputs: x = -A^-1 (B u + C w)."""
    a, b, c = build_matrices(p)
    return np.linalg.solve(a, -(b * u + c @ w))
