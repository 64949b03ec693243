"""End-to-end runs, trace write and read, the trace writer's digit tables, the PV
profile load, the run's constants as one stage and stage by stage, the metrics, the
iP law's tables, the plant's period map, the run's control loop, and the run's
one range check over its reached states."""

from __future__ import annotations

import numpy as np
import pytest
from inputs import cloudy_pv_csv

from pvflock import (
    ProfileError,
    compute_metrics,
    load_profile_csv,
    read_trace,
    run_simulation,
    write_trace,
)
from pvflock.control import control_tables
from pvflock.coordinator import building_bounds
from pvflock.plant import BuildingParams, check_sane, transition_map
from pvflock.scenario import synth_disturbances
from pvflock.simulate import _FORMAT_BLOCK, _digit_tables, _format_cells, _march, run_constants


@pytest.mark.parametrize("n, horizon_h, csv", [
    (13, 672.0, True),  # the long_horizon_csv workload
    (130, 72.0, False),  # the fleet_day workload
    (1300, 72.0, False),
    (13000, 72.0, False),  # the north-star fleet: its run holds about 0.23 GB of arrays
], ids=["13x672h_csv", "130x72h", "1300x72h", "13000x72h"])
def test_run_simulation(benchmark, scenario_config, n, horizon_h, csv):
    cfg = scenario_config(n, horizon_h, csv)
    trace = benchmark(run_simulation, cfg)
    assert trace.t1.shape == (cfg.n_steps, n)


@pytest.fixture(params=[130, 1300], ids=["130x72h", "1300x72h"])
def trace_file(request, scenario_config, tmp_path):
    """A run of n buildings over 72 h and the trace file it wrote."""
    trace = run_simulation(scenario_config(request.param, 72.0))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    return trace, path


def test_write_trace(benchmark, trace_file):
    trace, path = trace_file
    benchmark(write_trace, trace, path)


def test_read_trace(benchmark, trace_file):
    trace, path = trace_file
    back = benchmark(read_trace, path)
    assert back.t1.shape == trace.t1.shape


def test_format_cells(benchmark, scenario_config):
    # one block of the 130-building 72 h trace, as write_trace hands it over
    trace = run_simulation(scenario_config(130, 72.0))
    ncols = 6 * (trace.n_buildings + 1)
    rows = _FORMAT_BLOCK // ncols
    fleet = np.column_stack([trace.t, trace.pv, trace.sum_p, trace.band_lo, trace.band_hi,
                             trace.infeasible])
    buildings = np.stack([trace.t1, trace.t2, trace.t3, trace.u, trace.p, trace.clamped], axis=-1)
    block = np.hstack([fleet[:rows], buildings[:rows].reshape(rows, -1)]).ravel()
    text = benchmark(_format_cells, block, ncols)
    assert text.tobytes().count(b"\n") == rows


def test_digit_tables(benchmark):
    # built on the first write of a process and cached: time the build, not a cache hit
    hi, lo = benchmark(_digit_tables.__wrapped__)
    assert hi.shape == lo.shape == (10000, 2)


@pytest.mark.parametrize("horizon_h", [672.0, 8760.0], ids=["4weeks", "1year"])
def test_load_profile_csv(benchmark, tmp_path, horizon_h):
    # cloudy 12 kW PV at seed 1: four weeks is the long_horizon_csv workload's PV input,
    # a year of 15-minute rows (35 041 of them) a long measured log
    text, _, values = cloudy_pv_csv(1, horizon_h, 12.0)
    path = tmp_path / "pv.csv"
    path.write_text(text)
    profile = benchmark(load_profile_csv, path, non_negative=True)
    assert np.array_equal(profile.values, values)


def test_load_profile_csv_bad_last_row(benchmark, tmp_path):
    # the error path: the year of 15-minute rows with its last value x, which the C pass
    # refuses and the walk in blocks names by its file line
    text, t, _ = cloudy_pv_csv(1, 8760.0, 12.0)
    path = tmp_path / "pv.csv"
    path.write_text(text[:text.rstrip("\n").rindex(",") + 1] + "x\n")

    def refused() -> str:
        try:
            load_profile_csv(path, non_negative=True)
        except ProfileError as exc:
            return str(exc)
        raise AssertionError("the bad row was not rejected")

    assert benchmark(refused) == (f"{path}:{len(t) + 1}: non-numeric field: "
                                  "could not convert string 'x' to float64")


@pytest.fixture(params=[130, 1300], ids=["130x72h", "1300x72h"])
def day(request, scenario_config):
    """The loaded config of n buildings over 72 h, PV from a cloudy CSV, and its run's constants."""
    cfg = scenario_config(request.param, 72.0, csv=True)
    return cfg, run_constants(cfg)


def test_run_constants(benchmark, day):
    # everything a run builds before its law's tables, the PV CSV's load among it
    cfg, run = day
    got = benchmark(run_constants, cfg)
    assert got.pv.tobytes() == run.pv.tobytes() and got.cw.shape == (cfg.n_steps, 3)


def test_building_bounds(benchmark, day):
    cfg, run = day
    benchmark(building_bounds, run.pv, cfg.fleet)


def test_disturbance_and_pv_lookup(benchmark, day):
    cfg, t = day[0], day[1].t
    profile = load_profile_csv(cfg.pv.csv_path, non_negative=True)

    def lookup():
        return synth_disturbances(t, cfg.disturbance), profile.value_at(t)

    benchmark(lookup)


def test_compute_metrics(benchmark, day):
    cfg, _ = day
    trace = run_simulation(cfg)
    report = benchmark(compute_metrics, trace, epsilon=cfg.fleet.epsilon, comfort_low=cfg.comfort_low,
                       comfort_high=cfg.comfort_high, transient_hours=cfg.transient_hours)
    assert not report.empty


def test_run_tables(benchmark, day):
    # the control table and the bias, built once per run before the loop, which
    # writes the bias into each period's u row
    cfg, run = day
    benchmark(control_tables, run.t, run.x0[0], cfg.window_capacity, cfg.alpha, cfg.kp,
              cfg.setpoint, cfg.ramp_hours, cfg.fleet.sample_dt)


def test_plant_map(benchmark):
    # the exact period map of the default building, built once per run before the loop
    tm = benchmark(transition_map, BuildingParams(), 1.0 / 6.0)
    assert np.all(np.isfinite(tm.s))


@pytest.fixture(params=[13, 1300], ids=["n13", "n1300"])
def loop(request, scenario_config):
    """The loaded config of n buildings over 72 h, its run's constants and its law's
    (rows, bias), as run_simulation hands them to its control loop."""
    cfg = scenario_config(request.param, 72.0)
    run = run_constants(cfg)
    return cfg, run, control_tables(run.t, run.x0[0], cfg.window_capacity, cfg.alpha, cfg.kp,
                                    cfg.setpoint, cfg.ramp_hours, cfg.fleet.sample_dt)


def test_control_loop(benchmark, loop):
    # the run's own loop, all 432 periods of the day: the estimate and the law, the
    # clamp and the plant step, with the set-up of its history and [A | B | C w] table
    cfg, run, (rows, bias) = loop
    z, raw = benchmark(_march, run, rows, bias)
    assert raw.shape == (cfg.n_steps, cfg.fleet.n_buildings) and np.all(np.isfinite(z))


def test_sanity_check(benchmark, loop):
    benchmark(check_sane, loop[1].x0, 12.0)


def test_run_sanity_check(benchmark, loop):
    # a 72 h run's reached states, all sane: the run's usual case, on its own operand
    cfg, run, (rows, bias) = loop
    z, _ = _march(run, rows, bias)
    benchmark(check_sane, z[cfg.window_capacity + 1:, :3], run.t + cfg.fleet.sample_dt)
