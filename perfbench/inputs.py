"""Workload inputs: the scenario each workload hands the program, made from a seed.

The benchmark keeps every parameter it writes into a config, so that the
checks recompute the program's outputs from these values and the paper's
formulas, never from the program's defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DT = 1.0 / 6.0  # control period, h
DT_TEXT = "0.166666666666666667"
PV_GRID_H = 0.25  # resolution of the cloudy PV profile, h

#: residential-scale RC constants: capacitances kJ/degC, conductances kW/degC
BUILDING = {"c1": 1500.0, "c2": 6000.0, "c3": 4500.0, "k1": 0.25, "k2": 0.65, "k4": 0.035, "k5": 0.12}
#: synthetic-day magnitudes: outdoor mean/amplitude degC, solar peak, day/night gains kW
DISTURBANCE = {"d1_mean": 28.0, "d1_amp": 6.0, "d2_peak": 0.04, "d3_day": 0.1, "d3_night": 0.05}


@dataclass
class Scenario:
    """One run's parameters, as written into its config file."""

    n_buildings: int
    horizon_h: float
    seed: int
    pv_peak_kw: float
    pv_grid: tuple[np.ndarray, np.ndarray] | None = None  # (t, value) of a CSV profile
    epsilon: float = 1.0
    hvac_max: float = 3.0
    alpha: float = 5.0
    kp: float = 2.0
    # 5, not the shipped 3: the 3-sample window is unstable on the ultra-local model
    window: int = 5
    setpoint: float = 23.0
    comfort: tuple[float, float] = (22.0, 24.0)
    transient_h: float = 6.0
    substeps: int = 10
    building: dict = field(default_factory=lambda: dict(BUILDING))
    disturbance: dict = field(default_factory=lambda: dict(DISTURBANCE))

    @property
    def n_steps(self) -> int:
        return round(self.horizon_h / DT)

    @property
    def building_steps(self) -> int:
        return self.n_steps * self.n_buildings

    def config_text(self, pv_csv: Path | None) -> str:
        b, d = self.building, self.disturbance
        lines = [
            f"scenario.horizon_hours = {self.horizon_h!r}",
            f"scenario.setpoint_c = {self.setpoint!r}",
            f"scenario.comfort_low_c = {self.comfort[0]!r}",
            f"scenario.comfort_high_c = {self.comfort[1]!r}",
            f"scenario.transient_hours = {self.transient_h!r}",
            "scenario.ramp_hours = 0",
            "scenario.initial_t1_low_c = 22.5",
            "scenario.initial_t1_high_c = 26.5",
            f"scenario.seed = {self.seed}",
            f"scenario.substeps = {self.substeps}",
            f"fleet.n_buildings = {self.n_buildings}",
            f"fleet.epsilon_kw = {self.epsilon!r}",
            f"fleet.hvac_max_kw = {self.hvac_max!r}",
            f"fleet.sample_dt_hours = {DT_TEXT}",
            f"controller.alpha = {self.alpha!r}",
            f"controller.kp = {self.kp!r}",
            f"controller.window_capacity = {self.window}",
        ]
        lines += [f"building.{k} = {v!r}" for k, v in b.items()]
        lines += [
            f"disturbance.d1_mean_c = {d['d1_mean']!r}",
            f"disturbance.d1_amp_c = {d['d1_amp']!r}",
            f"disturbance.d2_peak_kw = {d['d2_peak']!r}",
            f"disturbance.d3_day_kw = {d['d3_day']!r}",
            f"disturbance.d3_night_kw = {d['d3_night']!r}",
        ]
        if pv_csv is None:
            lines += ["pv.source = synthetic", f"pv.peak_kw = {self.pv_peak_kw!r}"]
        else:
            lines += ["pv.source = csv", f"pv.csv_path = {pv_csv}"]
        return "\n".join(lines) + "\n"


def solar_shape(t: np.ndarray) -> np.ndarray:
    """The synthetic day's bell: sin^2 over 6-20 h, zero at night (t in h, 24 h periodic)."""
    h = np.mod(t, 24.0)
    bell = np.maximum(0.0, np.sin(np.pi * (h - 6.0) / 14.0)) ** 2
    return np.where((h >= 6.0) & (h <= 20.0), bell, 0.0)


def disturbances(t: np.ndarray, d: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outdoor temperature, solar gain and internal gain of the synthetic day."""
    h = np.mod(t, 24.0)
    d1 = d["d1_mean"] + d["d1_amp"] * np.sin(2.0 * np.pi * (h - 9.0) / 24.0)
    d2 = d["d2_peak"] * solar_shape(t)
    d3 = np.where((h >= 8.0) & (h <= 18.0), d["d3_day"], d["d3_night"])
    return d1, d2, d3


def pv_at(sc: Scenario, t: np.ndarray) -> np.ndarray:
    """PV the program should see at times t: the synthetic bell or the CSV, interpolated."""
    if sc.pv_grid is None:
        return sc.pv_peak_kw * solar_shape(t)
    grid_t, grid_v = sc.pv_grid
    i = np.clip(np.floor(t / PV_GRID_H).astype(int), 0, len(grid_t) - 2)
    frac = (t - grid_t[i]) / (grid_t[i + 1] - grid_t[i])
    return grid_v[i] + frac * (grid_v[i + 1] - grid_v[i])


def cloudy_pv_csv(seed: int, horizon_h: float, peak_kw: float) -> tuple[str, np.ndarray, np.ndarray]:
    """A cloudy PV profile on a 15-minute grid covering [0, horizon_h].

    Clear-sky output is the synthetic bell.  Each day draws a mean clear-sky
    index in [0.3, 0.95]; around it the index follows an AR(1) process with
    lag-one correlation 0.8 per 15 minutes and spread 0.25, clipped to
    [0.05, 1].  PV is clear-sky output times the index, written to 4
    decimals.  Returns the CSV text and the grid as the program will read it.
    """
    rng = np.random.default_rng([seed, 17])
    rows = round(horizon_h / PV_GRID_H) + 1
    t = np.arange(rows) * PV_GRID_H
    day_mean = rng.uniform(0.3, 0.95, math.ceil(horizon_h / 24.0) + 1)[(t // 24.0).astype(int)]
    shocks = rng.standard_normal(rows)
    ar = np.empty(rows)
    ar[0] = shocks[0]
    phi = 0.8
    for i in range(1, rows):
        ar[i] = phi * ar[i - 1] + math.sqrt(1.0 - phi * phi) * shocks[i]
    index = np.clip(day_mean + 0.25 * ar, 0.05, 1.0)
    values = [f"{v:.4f}" for v in peak_kw * solar_shape(t) * index]
    text = "t_hours,value\n" + "".join(f"{tt:.2f},{v}\n" for tt, v in zip(t, values))
    return text, t, np.array([float(v) for v in values])
