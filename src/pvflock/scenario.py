"""Scenario assembly: synthetic profiles, CSV profiles and the config file.

The synthetic day used by the fleet simulations:

    outdoor temp   d1(h) = d1_mean + d1_amp * sin(2*pi*(h - 9)/24)     (peak ~15:00)
    solar gain     d2(h) = d2_peak * max(0, sin(pi*(h - 6)/14))^2      for h in [6, 20]
    internal gain  d3(h) = d3_day for h in [8, 18], else d3_night
    pv output      pv(h) = peak * max(0, sin(pi*(h - 6)/14))^2         for h in [6, 20]

with h = t mod 24.  Real measurements can replace the PV shape through a
two-column CSV (header "t_hours,value", strictly increasing times, linear
interpolation between rows, so a log with gaps loads as it is).  None of
these inputs depends on the fleet's state, so a run evaluates each one once
over its whole time grid: the synthetic functions and Profile.value_at take
an array of times, and a profile that does not cover the grid fails before
anything is simulated.

Config files are flat "section.key = value" text; see CONFIG_KEYS for the
schema.  Unknown keys are rejected so typos cannot silently fall back to
defaults.  Every setting is checked once, here: by the config dataclasses
when they are built and by the loaders as they read a file.  The functions
that run during a simulation trust what these checks let through.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coordinator import FleetConfig
from .errors import ConfigurationError, ProfileError
from .plant import BuildingParams


@dataclass(frozen=True)
class DisturbanceParams:
    """Magnitudes of the synthetic disturbance day."""

    d1_mean: float = 28.0
    d1_amp: float = 6.0
    d2_peak: float = 0.04
    d3_day: float = 0.1
    d3_night: float = 0.05

    def __post_init__(self) -> None:
        for name in ("d1_mean", "d1_amp", "d2_peak", "d3_day", "d3_night"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.d2_peak < 0 or self.d3_day < 0 or self.d3_night < 0:
            raise ConfigurationError("gain magnitudes must be >= 0")


def _solar_shape(h):
    """The daylight bell max(0, sin(pi (h - 6) / 14))^2 on [6, 20] h, else 0."""
    bell = np.maximum(0.0, np.sin(math.pi * (h - 6.0) / 14.0)) ** 2
    return np.where((h >= 6.0) & (h <= 20.0), bell, 0.0)


def synth_disturbances(t, params: DisturbanceParams) -> np.ndarray:
    """Disturbances (d1, d2, d3) at times t (hours, 24 h periodic).

    t may be one time or an array of them; the result has one trailing
    axis of length 3, so an array of times gives a (len(t), 3) table.
    """
    h = np.mod(t, 24.0)
    d1 = params.d1_mean + params.d1_amp * np.sin(2.0 * math.pi * (h - 9.0) / 24.0)
    d2 = params.d2_peak * _solar_shape(h)
    d3 = np.where((h >= 8.0) & (h <= 18.0), params.d3_day, params.d3_night)
    return np.stack([d1, d2, d3], axis=-1)


def synth_pv(t, peak: float):
    """Synthetic PV output (kW) at times t, same bell as the solar gain."""
    return peak * _solar_shape(np.mod(t, 24.0))


class Profile:
    """Scalar profile at strictly increasing times, linearly interpolated."""

    def __init__(self, t: np.ndarray, values: np.ndarray):
        if len(t) < 2:
            raise ProfileError("profile needs at least two rows")
        if np.any(np.diff(t) <= 0):
            raise ProfileError("profile times must be strictly increasing")
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def value_at(self, t):
        """Interpolated values at times t (one time or an array of them)."""
        lo, hi = float(self.t[0]), float(self.t[-1])
        t = np.asarray(t, dtype=float)
        outside = (t < lo) | (t > hi)
        if outside.any():
            first = float(t[outside][0])
            raise ProfileError(f"query t = {first} h outside the profile span [{lo}, {hi}] h")
        return np.interp(t, self.t, self.values)


def load_profile_csv(path: str | Path, *, non_negative: bool = False) -> Profile:
    """Read a "t_hours,value" CSV; optionally reject negative values (PV)."""
    table, lines = read_csv_table(
        path, "profile",
        lambda fields: None if fields == ["t_hours", "value"]
        else "first line must be the header 't_hours,value'",
    )
    bad = ~np.isfinite(table).all(axis=1) | (non_negative & (table[:, 1] < 0))
    if bad.any():
        i = int(np.argmax(bad))
        kind = "non-finite or negative" if non_negative else "non-finite"
        raise ProfileError(f"{path}:{lines[i]}: {kind} row {table[i].tolist()}")
    return Profile(table[:, 0], table[:, 1])


def read_csv_table(
    path: str | Path, what: str, header_error: Callable[[list[str]], str | None]
) -> tuple[np.ndarray, list[int]]:
    """Read a numeric CSV: a header line, then rows of one number per header field.

    Blank lines are skipped, whitespace around a cell or a header field is
    ignored and '#' is not a comment.  header_error(fields) sees the header
    before any row is parsed and returns why it is rejected, or None.
    Returns the (rows, fields) table and each row's file line; errors name
    the file line.
    """
    path = Path(path)
    lines: list[int] = []
    try:
        with open(path) as fh:
            rows = _nonblank(fh, lines)
            fields = "".join(next(rows, "").split()).split(",")
            reason = header_error(fields)
            if reason:
                raise ProfileError(f"{path}: {reason}")
            with warnings.catch_warnings():
                # a header-only file is empty, which loadtxt warns about
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:  # a ValueError, but no row is at fault
        raise ProfileError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError:
        table = None
    if table is None or (table.size and table.shape[1] != len(fields)):
        raise ProfileError(_first_bad_row(path, len(fields)))
    return table.reshape(-1, len(fields)), lines[1:]  # a header-only file reads as (0, 1)


def _nonblank(fh, lines: list[int]) -> Iterator[str]:
    """The lines of fh that are not blank; appends each one's file line to lines."""
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            lines.append(lineno)
            yield line


def _first_bad_row(path: Path, width: int) -> str:
    """Name the first row of a CSV that is not `width` numbers.

    Only runs once the whole-file parse has failed, and parses each row the
    same way; loadtxt's own messages do not count the lines of the file.
    """
    lines: list[int] = []
    with open(path) as fh:
        rows = _nonblank(fh, lines)
        next(rows)  # the header
        for row in rows:
            if len(row.split(",")) != width:
                return f"{path}:{lines[-1]}: expected {width} fields"
            try:
                np.loadtxt([row], delimiter=",", comments=None)
            except ValueError as exc:
                return f"{path}:{lines[-1]}: non-numeric field: {str(exc).partition(' at row')[0]}"
    return f"{path}: unreadable"


@dataclass(frozen=True)
class PvSourceConfig:
    """Where the PV profile comes from: 'synthetic' (peak) or 'csv' (path)."""

    kind: str = "synthetic"
    peak: float = 12.0
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "csv", "off"):
            raise ConfigurationError(f"pv.source must be synthetic, csv or off, got {self.kind!r}")
        if self.kind == "synthetic" and not (self.peak >= 0 and math.isfinite(self.peak)):
            raise ConfigurationError("pv.peak_kw must be >= 0")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigurationError("pv.source = csv requires pv.csv_path")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs; defaults describe the headline fleet day."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    building: BuildingParams = field(default_factory=BuildingParams)
    disturbance: DisturbanceParams = field(default_factory=DisturbanceParams)
    pv: PvSourceConfig = field(default_factory=PvSourceConfig)
    horizon: float = 72.0
    setpoint: float = 23.0
    comfort_low: float = 22.0
    comfort_high: float = 24.0
    transient_hours: float = 6.0
    alpha: float = 5.0
    kp: float = 2.0
    window_capacity: int = 3
    ramp_hours: float = 0.0
    initial_t1_low: float = 22.5
    initial_t1_high: float = 26.5
    seed: int = 1
    output_path: str = "trace.csv"

    def __post_init__(self) -> None:
        if self.horizon < 0 or not math.isfinite(self.horizon):
            raise ConfigurationError("horizon must be >= 0")
        steps = self.horizon / self.fleet.sample_dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigurationError("horizon must be a finite multiple of the sampling interval")
        if not self.comfort_low < self.setpoint < self.comfort_high:
            raise ConfigurationError("need comfort_low < setpoint < comfort_high")
        if not (math.isfinite(self.initial_t1_low) and math.isfinite(self.initial_t1_high)):
            raise ConfigurationError("initial temperatures must be finite")
        if self.initial_t1_low > self.initial_t1_high:
            raise ConfigurationError("initial temperature range is inverted")
        if not (self.transient_hours >= 0 and math.isfinite(self.transient_hours)):
            raise ConfigurationError("transient_hours must be >= 0 and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.window_capacity < 3 or self.window_capacity % 2 == 0:
            raise ConfigurationError("window_capacity must be odd and >= 3")
        if 0 < self.n_steps <= self.window_capacity:
            raise ConfigurationError(f"window_capacity must be under the run's {self.n_steps} steps")
        if self.alpha == 0 or not math.isfinite(self.alpha):
            raise ConfigurationError("alpha must be nonzero and finite")
        if not (self.kp > 0 and math.isfinite(self.kp)):
            raise ConfigurationError("kp must be positive (closed-loop stability)")
        if not (self.ramp_hours >= 0 and math.isfinite(self.ramp_hours)):
            raise ConfigurationError("ramp_hours must be >= 0 and finite")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.fleet.sample_dt)


# ---------------------------------------------------------------------------
# config file parsing

#: config key -> (target object, attribute, parser)
CONFIG_KEYS: dict[str, tuple[str, str, type | object]] = {
    "scenario.horizon_hours": ("", "horizon", float),
    "scenario.setpoint_c": ("", "setpoint", float),
    "scenario.comfort_low_c": ("", "comfort_low", float),
    "scenario.comfort_high_c": ("", "comfort_high", float),
    "scenario.transient_hours": ("", "transient_hours", float),
    "scenario.ramp_hours": ("", "ramp_hours", float),
    "scenario.initial_t1_low_c": ("", "initial_t1_low", float),
    "scenario.initial_t1_high_c": ("", "initial_t1_high", float),
    "scenario.seed": ("", "seed", int),
    "scenario.substeps": ("", "substeps", int),
    "fleet.n_buildings": ("fleet", "n_buildings", int),
    "fleet.epsilon_kw": ("fleet", "epsilon", float),
    "fleet.hvac_max_kw": ("fleet", "hvac_max", float),
    "fleet.sample_dt_hours": ("fleet", "sample_dt", float),
    "controller.alpha": ("", "alpha", float),
    "controller.kp": ("", "kp", float),
    "controller.window_capacity": ("", "window_capacity", int),
    "building.c1": ("building", "c1", float),
    "building.c2": ("building", "c2", float),
    "building.c3": ("building", "c3", float),
    "building.k1": ("building", "k1", float),
    "building.k2": ("building", "k2", float),
    "building.k4": ("building", "k4", float),
    "building.k5": ("building", "k5", float),
    "disturbance.d1_mean_c": ("disturbance", "d1_mean", float),
    "disturbance.d1_amp_c": ("disturbance", "d1_amp", float),
    "disturbance.d2_peak_kw": ("disturbance", "d2_peak", float),
    "disturbance.d3_day_kw": ("disturbance", "d3_day", float),
    "disturbance.d3_night_kw": ("disturbance", "d3_night", float),
    "pv.source": ("pv", "kind", str),
    "pv.peak_kw": ("pv", "peak", float),
    "pv.csv_path": ("pv", "csv_path", str),
    "output.path": ("", "output_path", str),
}


def parse_config_text(text: str, origin: str = "<config>") -> ScenarioConfig:
    """Parse flat "section.key = value" lines into a ScenarioConfig."""
    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {
        "fleet": {},
        "building": {},
        "disturbance": {},
        "pv": {},
    }
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{origin}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{origin}:{lineno}: unknown config key {key!r}")
        target, attr, parser = CONFIG_KEYS[key]
        try:
            value = parser(raw_value)  # type: ignore[operator]
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
        if target:
            nested[target][attr] = value
        else:
            top[attr] = value
    try:
        fleet = FleetConfig(**nested["fleet"])
        building = BuildingParams(**nested["building"])
        disturbance = DisturbanceParams(**nested["disturbance"])
        pv = PvSourceConfig(**nested["pv"])
        # old files set RK4 substeps, which the exact plant map has no use for
        if top.pop("substeps", 1) < 1:
            raise ConfigurationError("substeps must be >= 1")
        return ScenarioConfig(
            fleet=fleet, building=building, disturbance=disturbance, pv=pv, **top
        )
    except (TypeError, ValueError) as exc:  # a ConfigurationError passes through as it is
        raise ConfigurationError(f"{origin}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a config file; an empty file yields pure defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))
