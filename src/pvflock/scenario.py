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
over its whole time grid: pv_output (the configured PV source), the
synthetic functions and Profile.value_at take an array of times, and a
profile that does not cover the grid fails before anything is simulated.

Config files are flat "section.key = value" text; see CONFIG_KEYS for the
schema and SECTIONS for the dataclass each section builds.  Unknown keys
are rejected so typos cannot silently fall back to defaults.  Every setting
is checked once, here: by the config dataclasses when they are built and by
the loaders as they read a file.  The functions that run during a
simulation trust what these checks let through.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import _load_from_filelike

from .coordinator import FleetConfig
from .errors import ConfigurationError, ProfileError
from .plant import SANITY_RANGE, BuildingParams


@dataclass(frozen=True)
class DisturbanceParams:
    """Magnitudes of the synthetic disturbance day."""

    d1_mean: float = 28.0
    d1_amp: float = 6.0
    d2_peak: float = 0.04
    d3_day: float = 0.1
    d3_night: float = 0.05

    def __post_init__(self) -> None:
        for key, value in (("d1_mean_c", self.d1_mean), ("d1_amp_c", self.d1_amp)):
            if not math.isfinite(value):
                raise ConfigurationError(f"disturbance.{key} must be finite")
        for key, value in (("d2_peak_kw", self.d2_peak), ("d3_day_kw", self.d3_day),
                           ("d3_night_kw", self.d3_night)):
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigurationError(f"disturbance.{key} must be >= 0 and finite")


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


def pv_output(t, pv: PvSourceConfig) -> np.ndarray:
    """PV output (kW) at times t from pv's source: its CSV profile, the bell or zeros."""
    if pv.kind == "csv":
        return load_profile_csv(pv.csv_path, non_negative=True).value_at(t)
    if pv.kind == "synthetic":
        return synth_pv(t, pv.peak)
    return np.zeros(np.shape(t))


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
    table = read_csv_table(path, "profile", lambda fields: None if fields == ["t_hours", "value"]
                           else "first line must be the header 't_hours,value'")
    if non_negative and (table[:, 1] < 0).any():  # the reader has rejected non-finite cells
        raise _cell_error(path, ["value"], table[:, 1:], table[:, 1:] < 0, "negative")
    return Profile(*table.T)


def read_csv_table(
    path: str | Path, what: str, header_error: Callable[[list[str]], str | None]
) -> np.ndarray:
    """Read a numeric CSV: a header line, then rows of one number per header field.

    Blank lines are skipped, whitespace around (not inside) a cell or a header
    field is ignored and '#' is not a comment.  header_error(fields) sees the
    header before any row is parsed and returns why it is rejected, or None.
    Returns the (rows, fields) table of finite cells; a UTF-8 byte-order mark is not part of
    the header.  The rest of the open file goes to numpy's chunked C reader, np.loadtxt's own
    when it opens a file, never the path (numpy would decompress by suffix or open a URL).
    A file it refuses (a line of only spaces or tabs, or a bad row) is read once more, in blocks.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            fields = [f.strip() for f in next((line for line in fh if line.strip()), "").split(",")]
            reason = header_error(fields)
            if reason:
                raise ProfileError(f"{path}: {reason}")
            try:  # np.loadtxt(fh, delimiter=",", comments=None)'s call, read by fh.read in chunks
                table = _load_from_filelike(
                    fh, delimiter=",", comment=None, quote=None, imaginary_unit="j", usecols=None,
                    skiplines=0, max_rows=-1, converters=None, dtype=np.dtype(float),
                    encoding=fh.encoding, filelike=True, byte_converters=False)
            except ValueError:  # a line of only spaces or tabs, or a bad row
                table = None
            if table is None or (table.size and table.shape[1] != len(fields)):
                fh.seek(0)
                table = _rows_in_blocks(fh, path, len(fields))
    except (OSError, UnicodeDecodeError) as exc:  # a ValueError, but no row is at fault
        raise ProfileError(f"cannot read {what} {path}: {exc}") from exc
    table = table.reshape(-1, len(fields))  # a header-only file reads as (0, 1)
    if not np.isfinite(table).all():
        raise _cell_error(path, fields, table, ~np.isfinite(table), "non-finite")
    return table


def _rows_in_blocks(fh, path: Path, width: int) -> np.ndarray:
    """The (rows, width) table of the non-blank rows after the header line of fh.

    Parses blocks of 1 024 rows, one by one only in the first block that fails, and raises
    the error naming its first row that is not `width` numbers; loadtxt's own messages do not
    count the lines of the file.
    """
    parts = []
    rows = islice(_nonblank(fh), 1, None)  # after the header
    while block := list(islice(rows, 1024)):
        # a block parses to `width` columns exactly when each of its rows is `width` numbers
        with suppress(ValueError):
            part = np.loadtxt([row for _, row in block], delimiter=",", comments=None, ndmin=2)
            if part.shape[1] == width:
                parts.append(part)
                continue
        for lineno, row in block:
            if len(row.split(",")) != width:
                raise ProfileError(f"{path}:{lineno}: expected {width} fields")
            try:
                np.loadtxt([row], delimiter=",", comments=None)
            except ValueError as exc:
                reason = str(exc).partition(" at row")[0]
                raise ProfileError(f"{path}:{lineno}: non-numeric field: {reason}") from None
        raise ProfileError(f"{path}: unreadable")
    return np.concatenate(parts) if parts else np.empty((0, width))


def _nonblank(fh) -> Iterator[tuple[int, str]]:
    """Each line of fh that is not blank, with its file line."""
    return ((lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip())


def _cell_error(path: str | Path, fields: list[str], cells: np.ndarray, bad: np.ndarray,
                kind: str) -> ProfileError:
    """The error naming the first bad cell, in row order, by file line, field and value."""
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    with open(path, encoding="utf-8-sig") as fh:
        lineno, _ = next(islice(_nonblank(fh), i + 1, None))
    return ProfileError(f"{path}:{lineno}: {kind} {fields[j]} = {cells[i, j]}")


@dataclass(frozen=True)
class PvSourceConfig:
    """Where pv_output takes the PV from: 'synthetic' (peak), 'csv' (path) or 'off'."""

    kind: str = "synthetic"
    peak: float = 12.0
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "csv", "off"):
            raise ConfigurationError(f"pv.source must be synthetic, csv or off, got {self.kind!r}")
        if self.kind == "synthetic" and not (self.peak >= 0 and math.isfinite(self.peak)):
            raise ConfigurationError("pv.peak_kw must be >= 0 and finite")
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
            raise ConfigurationError("scenario.horizon_hours must be >= 0 and finite")
        steps = self.horizon / self.fleet.sample_dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigurationError("horizon must be a finite multiple of the sampling interval")
        if not -math.inf < self.comfort_low < self.setpoint < self.comfort_high < math.inf:
            raise ConfigurationError("need finite comfort_low < setpoint < comfort_high")
        # build_fleet starts the wall core 1 degC above T1; NaN fails the comparison too
        lo, hi = SANITY_RANGE
        if not (lo <= self.initial_t1_low and self.initial_t1_high + 1.0 <= hi):
            raise ConfigurationError(f"initial temperatures must start inside the sane range:"
                                     f" need {lo:g} <= initial_t1_low, initial_t1_high + 1 <= {hi:g}")
        if self.initial_t1_low > self.initial_t1_high:
            raise ConfigurationError("initial temperature range is inverted")
        if not (self.transient_hours >= 0 and math.isfinite(self.transient_hours)):
            raise ConfigurationError("scenario.transient_hours must be >= 0 and finite")
        if self.seed < 0:
            raise ConfigurationError("scenario.seed must be >= 0")
        if not self.output_path:
            raise ConfigurationError("output.path must be a non-empty path")
        if self.window_capacity < 3 or self.window_capacity % 2 == 0:
            raise ConfigurationError("controller.window_capacity must be odd and >= 3")
        if 0 < self.n_steps <= self.window_capacity:
            raise ConfigurationError(f"window_capacity must be under the run's {self.n_steps} steps")
        # the (steps + c + 1, 4, n) float64 history; past np.intp's range numpy raises ValueError
        entries = self.n_steps + min(self.window_capacity, self.n_steps) + 1
        if entries * 4 * self.fleet.n_buildings * 8 > np.iinfo(np.intp).max:
            raise ConfigurationError(
                "horizon x n_buildings is too large: the run's history would not fit one array"
            )
        # dT1/dt rises with u (by 3600/c1), so the model's input gain must share its sign
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ConfigurationError("controller.alpha must be positive and finite")
        if not (self.kp > 0 and math.isfinite(self.kp)):
            raise ConfigurationError("controller.kp must be positive and finite (for stability)")
        if not (self.ramp_hours >= 0 and math.isfinite(self.ramp_hours)):
            raise ConfigurationError("scenario.ramp_hours must be >= 0 and finite")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.fleet.sample_dt)


# ---------------------------------------------------------------------------
# config file parsing

#: config section -> the dataclass its keys build; target "" is ScenarioConfig itself
SECTIONS: dict[str, type] = {"fleet": FleetConfig, "building": BuildingParams,
                             "disturbance": DisturbanceParams, "pv": PvSourceConfig}

#: config key -> (target section, attribute, parser)
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
    values: dict[str, dict[str, object]] = {name: {} for name in ("", *SECTIONS)}
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
            values[target][attr] = parser(raw_value)  # type: ignore[operator]
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
    top = values.pop("")
    try:
        sections = {name: SECTIONS[name](**kw) for name, kw in values.items()}
        # old files set RK4 substeps, which the exact plant map has no use for
        if top.pop("substeps", 1) < 1:
            raise ConfigurationError("scenario.substeps must be >= 1")
        return ScenarioConfig(**sections, **top)
    except (TypeError, ValueError) as exc:  # a ConfigurationError passes through as it is
        raise ConfigurationError(f"{origin}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a config file; an empty file yields pure defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))
