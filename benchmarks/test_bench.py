"""End-to-end runs, trace write and read, the run-constant and metrics stages, the
iP law's tables, the plant's period map, one fused control period, and the block
check of the run's guards."""

from __future__ import annotations

import numpy as np
import pytest

from pvflock import compute_metrics, load_profile_csv, read_trace, run_simulation, write_trace
from pvflock.control import control_tables
from pvflock.coordinator import building_bounds
from pvflock.plant import BuildingParams, check_sane, transition_map
from pvflock.scenario import synth_disturbances
from pvflock.simulate import _CHECK_BLOCK, _FORMAT_BLOCK, _check_block, _format_cells, build_fleet


@pytest.mark.parametrize("n, horizon_h, csv", [
    (13, 672.0, True),  # the long_horizon_csv workload
    (130, 72.0, False),  # the fleet_day workload
    (1300, 72.0, False),
], ids=["13x672h_csv", "130x72h", "1300x72h"])
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


@pytest.fixture(params=[130, 1300], ids=["130x72h", "1300x72h"])
def day(request, scenario_config):
    """The time grid and loaded config of n buildings over 72 h, PV from a cloudy CSV."""
    cfg = scenario_config(request.param, 72.0, csv=True)
    return cfg, np.arange(cfg.n_steps) * cfg.fleet.sample_dt


def test_building_bounds(benchmark, day):
    cfg, t = day
    pv = load_profile_csv(cfg.pv.csv_path, non_negative=True).value_at(t)
    benchmark(building_bounds, pv, cfg.fleet)


def test_disturbance_and_pv_lookup(benchmark, day):
    cfg, t = day
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
    # the control table and the bias, built once per run before the loop
    cfg, t = day
    y0 = build_fleet(cfg)[0]
    benchmark(control_tables, t, y0, cfg.window_capacity, cfg.alpha, cfg.kp, cfg.setpoint,
              cfg.ramp_hours, cfg.fleet.sample_dt)


def test_plant_map(benchmark):
    # the exact period map of the default building, built once per run before the loop
    tm = benchmark(transition_map, BuildingParams(), 1.0 / 6.0)
    assert np.all(np.isfinite(tm.s))


@pytest.fixture(params=[13, 1300], ids=["n13", "n1300"])
def period(request, scenario_config):
    """One control period's tables and history for a fleet of n buildings, mid-run."""
    cfg = scenario_config(request.param, 72.0)
    c, dt, n = cfg.window_capacity, cfg.fleet.sample_dt, request.param
    rng = np.random.default_rng(0)
    t = np.arange(cfg.n_steps) * dt
    states = build_fleet(cfg)
    rows, bias = control_tables(t, states[0], c, cfg.alpha, cfg.kp, cfg.setpoint,
                                cfg.ramp_hours, dt)
    z = np.zeros((c + 2, 4, n))  # the window of period 100: c past entries and its own
    z[:, :3] = states + rng.uniform(-1.0, 1.0, (c + 2, 1, n))
    z[:c, 3] = rng.uniform(-3.0, 0.0, (c, n))
    tm = transition_map(cfg.building, dt)
    return {
        "cfg": cfg,
        "states": states,
        "row": rows[100],
        "bias": bias[100],
        "z": z,
        "u_bounds": (np.array(-cfg.fleet.hvac_max), np.array(-0.0)),
        "ab": np.column_stack([tm.a, tm.b]),
        "s": tm.s,
        "cw": (tm.c @ np.array([28.0, 0.02, 0.1]))[:, None],
    }


def test_control_period(benchmark, period):
    # the statements of one period of run_simulation's loop
    row, bias, z, ab, s, cw = (period[k] for k in ("row", "bias", "z", "ab", "s", "cw"))
    u_lo, u_hi = period["u_bounds"]
    c, n = len(row) - 1, z.shape[2]
    raw, f = np.empty(n), np.empty((3, n))
    x, x_next = z[c], z[c + 1, :3]

    def one_period():
        np.einsum("ij,ijn->n", row, z[:c + 1, ::3], out=raw)
        np.add(raw, bias, out=raw)
        np.maximum(raw, u_lo, out=x[3])
        np.minimum(x[3], u_hi, out=x[3])
        np.einsum("ij,jn->in", ab, x, out=f)
        np.add(f, cw, out=f)
        np.einsum("ij,jn->in", s, f, out=x_next)
        np.add(x_next, x[:3], out=x_next)

    benchmark(one_period)
    assert np.all(np.isfinite(x_next)) and np.all((-3.0 <= x[3]) & (x[3] <= 0.0))


def test_sanity_check(benchmark, period):
    benchmark(check_sane, period["states"], 12.0)


def test_block_check(benchmark, period):
    # one block's raw controls and reached states, all passing: the run's usual case
    cfg, states = period["cfg"], period["states"]
    n = states.shape[1]
    u_raw = np.random.default_rng(1).uniform(-3.0, 0.0, (_CHECK_BLOCK, n))
    reached = np.broadcast_to(states, (_CHECK_BLOCK, 3, n)).copy()
    t_next = (np.arange(_CHECK_BLOCK) + 1) * cfg.fleet.sample_dt
    benchmark(_check_block, u_raw, reached, t_next)
