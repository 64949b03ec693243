"""End-to-end runs, trace write and read, the run-constant and metrics stages, one
micro-benchmark per layer of a control period, and the block check of the run's guards."""

from __future__ import annotations

import numpy as np
import pytest

from pvflock import compute_metrics, load_profile_csv, read_trace, run_simulation, write_trace
from pvflock.control import estimate_f, estimator_kernel, ip_control
from pvflock.coordinator import building_bounds, clamp_to_bounds
from pvflock.plant import check_sane, rk4_fleet, transition_map
from pvflock.scenario import synth_disturbances
from pvflock.simulate import _CHECK_BLOCK, _check_block, build_fleet


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


@pytest.fixture(params=[13, 1300], ids=["n13", "n1300"])
def period(request, scenario_config):
    """One control period's inputs for a fleet of n buildings, mid-run."""
    cfg = scenario_config(request.param, 72.0)
    c, dt = cfg.window_capacity, cfg.fleet.sample_dt
    rng = np.random.default_rng(0)
    t = np.arange(cfg.n_steps) * dt
    ky, ku = estimator_kernel(t, c, cfg.alpha, dt)
    return {
        "cfg": cfg,
        "kernel": (ky[100], ku[100]),
        "t1": rng.uniform(22.0, 25.0, (c, request.param)),
        "u": rng.uniform(-3.0, 0.0, (c, request.param)),
        "states": build_fleet(cfg),
        "tm": transition_map(cfg.building, dt, cfg.substeps),
        "w": np.array([28.0, 0.02, 0.1]),
    }


def test_estimator(benchmark, period):
    ky, ku = period["kernel"]
    cfg = period["cfg"]
    benchmark(estimate_f, ky, ku, period["t1"], period["u"], cfg.fleet.sample_dt)


def test_ip_law_and_clamp(benchmark, period):
    cfg = period["cfg"]
    e = period["states"][0] - cfg.setpoint

    def law_and_clamp():
        return clamp_to_bounds(ip_control(0.5, 0.0, e, cfg.alpha, cfg.kp), 0.0, cfg.fleet.hvac_max)

    benchmark(law_and_clamp)


def test_plant_step(benchmark, period):
    tm, states = period["tm"], period["states"]
    u = np.full(states.shape[1], -1.0)
    benchmark(rk4_fleet, states, u, tm.c @ period["w"], tm)


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
