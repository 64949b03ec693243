"""Simulation driver, trace serialization and metrics arithmetic."""

from __future__ import annotations

import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import loop_oracle
from loop_oracle import run_simulation_reference

import pvflock.simulate
from pvflock import (
    ConfigurationError,
    FleetConfig,
    PlantDivergenceError,
    ProfileError,
    PvSourceConfig,
    ScenarioConfig,
    SimulationTrace,
    compute_metrics,
    load_config,
    read_trace,
    run_simulation,
    write_trace,
)
from pvflock.cli import main
from pvflock.scenario import DisturbanceParams
from pvflock.simulate import _format_cells, build_fleet, sum_rows, trace_header


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: every array of a SimulationTrace
TRACE_ARRAYS = ("t", "pv", "sum_p", "band_lo", "band_hi", "infeasible",
                "t1", "t2", "t3", "u", "p", "clamped")


def small_cfg(**kw) -> ScenarioConfig:
    base = ScenarioConfig(
        fleet=FleetConfig(n_buildings=3),
        horizon=2.0,
        transient_hours=0.5,
    )
    return replace(base, **kw)


def manual_trace(t, pv, sum_p, t1, infeasible=None) -> SimulationTrace:
    """Hand-build a single-building trace for metrics arithmetic checks."""
    steps = len(t)
    zeros = np.zeros((steps, 1))
    return SimulationTrace(
        n_buildings=1,
        t=np.array(t, dtype=float),
        pv=np.array(pv, dtype=float),
        sum_p=np.array(sum_p, dtype=float),
        band_lo=np.zeros(steps),
        band_hi=np.zeros(steps),
        infeasible=np.array(infeasible or [False] * steps),
        t1=np.array(t1, dtype=float).reshape(steps, 1),
        t2=zeros.copy(),
        t3=zeros.copy(),
        u=zeros.copy(),
        p=zeros.copy(),
        clamped=np.zeros((steps, 1), dtype=bool),
    )


def cell_by_cell(trace: SimulationTrace) -> str:
    """The reference trace file: each cell formatted on its own, row by row, building by building."""
    lines = [trace_header(trace.n_buildings)]
    for k in range(trace.n_steps):
        row = [f"{v:.6g}" for v in (trace.t[k], trace.pv[k], trace.sum_p[k],
                                     trace.band_lo[k], trace.band_hi[k])]
        row.append(str(int(trace.infeasible[k])))
        for i in range(trace.n_buildings):
            row += [f"{col[k, i]:.6g}" for col in (trace.t1, trace.t2, trace.t3, trace.u, trace.p)]
            row.append(str(int(trace.clamped[k, i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# driver

class TestRunSimulation:
    def test_shapes_and_time_grid(self):
        cfg = small_cfg()
        trace = run_simulation(cfg)
        assert trace.n_steps == 12 and trace.n_buildings == 3
        np.testing.assert_allclose(trace.t, np.arange(12) / 6.0, atol=1e-12)
        assert trace.t1.shape == (12, 3) and trace.clamped.shape == (12, 3)

    def test_identical_configs_are_bit_identical(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(run_simulation(cfg), a)
        write_trace(run_simulation(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_argument_overrides_the_config(self, tmp_path):
        # the library sets the seed the way the CLI does, through replace
        cfg = small_cfg(seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(run_simulation(replace(cfg, seed=9)), a)
        write_trace(run_simulation(cfg), b)
        assert a.read_bytes() != b.read_bytes()

    def test_zero_horizon_yields_an_empty_trace(self):
        trace = run_simulation(small_cfg(horizon=0.0))
        assert trace.n_steps == 0
        # no window fits an empty run, however large the capacity
        huge = run_simulation(small_cfg(horizon=0.0, window_capacity=10**12 + 1))
        assert huge.n_steps == 0
        report = compute_metrics(trace, epsilon=1.0, comfort_low=22.0, comfort_high=24.0,
                                 transient_hours=0.5)
        assert report.empty and report.comfort_violation_steps == 0
        assert "empty=true" in report.lines()[0]

    def test_pv_off_means_inert_band_everywhere(self):
        trace = run_simulation(small_cfg(pv=PvSourceConfig(kind="off")))
        assert np.all(trace.pv == 0.0)
        assert np.all(trace.band_lo == 0.0) and np.all(trace.band_hi == 0.0)

    def test_pv_from_csv(self, tmp_path):
        path = tmp_path / "pv.csv"
        rows = "\n".join(f"{k * 0.5},5" for k in range(5))
        path.write_text(f"t_hours,value\n{rows}\n")
        cfg = small_cfg(pv=PvSourceConfig(kind="csv", csv_path=str(path)))
        trace = run_simulation(cfg)
        np.testing.assert_allclose(trace.pv, 5.0)

    def test_divergent_scenario_raises(self):
        cfg = small_cfg(
            disturbance=DisturbanceParams(d3_day=50.0, d3_night=50.0),
            pv=PvSourceConfig(kind="off"),
        )
        with pytest.raises(PlantDivergenceError, match=re.escape(
            "building 1 left the sane range at t = 0.5000 h (T = 60.68, 31.29, 28.16)"
        )):
            run_simulation(cfg)

    def test_short_pv_profile_fails_before_any_step(self, tmp_path, monkeypatch):
        # a 24 h profile under the 72 h default day: the whole time grid is
        # checked against the profile's span before the plant moves once
        profile = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(profile), "--horizon", "24"]) == 0
        blocks = []
        check = pvflock.simulate._check_block

        def counting_check(raw, states, t_next):
            blocks.append(states.shape)
            return check(raw, states, t_next)

        monkeypatch.setattr(pvflock.simulate, "_check_block", counting_check)
        cfg = ScenarioConfig(pv=PvSourceConfig(kind="csv", csv_path=str(profile)))
        with pytest.raises(ProfileError, match=r"outside the profile span \[0\.0, 24\.0\] h"):
            run_simulation(cfg)
        assert blocks == []
        # the counter sees the blocks of plant steps of a run the profile covers
        run_simulation(replace(cfg, horizon=24.0))
        assert blocks == [(64, 3, 13), (64, 3, 13), (16, 3, 13)]


#: the largest difference between a run and the per-period loop, in degC and kW
ORACLE_TOLERANCE = 1e-11


def assert_matches_the_loop(a: SimulationTrace, b: SimulationTrace) -> None:
    assert a.n_buildings == b.n_buildings
    for name in TRACE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        if x.dtype == bool:
            assert np.array_equal(x, y), name
        else:
            np.testing.assert_allclose(x, y, rtol=0, atol=ORACLE_TOLERANCE, err_msg=name)


class TestAgainstThePerPeriodLoop:
    """run_simulation against tests/loop_oracle.py: every float array within
    ORACLE_TOLERANCE, the clamp and infeasible flags and the errors exact.

    The run folds the estimate and the iP law into one table of coefficients
    and sums each product in einsum's order, so it cannot match the loop's
    rounding bit for bit.  The pinned CSV digests see only six significant
    digits of each cell.
    """

    @pytest.mark.parametrize("ramp", [0.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 13])
    @pytest.mark.parametrize("capacity", [3, 5, 7, 9, 11])
    def test_every_array_is_bitwise_equal(self, capacity, n, ramp):
        # 24 h: two whole check blocks and a short one, one PV day
        cfg = replace(ScenarioConfig(), fleet=FleetConfig(n_buildings=n), horizon=24.0,
                      window_capacity=capacity, ramp_hours=ramp)
        trace = run_simulation(cfg)
        assert trace.clamped.any() and not trace.clamped.all()
        assert_matches_the_loop(trace, run_simulation_reference(cfg))

    @pytest.mark.parametrize("name", ["default", "fleet14", "regulation_only"])
    def test_shipped_configs_are_bitwise_equal(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        assert_matches_the_loop(run_simulation(cfg), run_simulation_reference(cfg))

    @pytest.mark.parametrize("cfg", [
        small_cfg(kp=1e308),
        small_cfg(alpha=1e-308),
        small_cfg(disturbance=DisturbanceParams(d3_day=50.0, d3_night=50.0),
                  pv=PvSourceConfig(kind="off")),
    ], ids=["kp_1e308", "alpha_1e-308", "divergent"])
    def test_errors_carry_the_loops_text(self, cfg):
        with pytest.raises((ConfigurationError, PlantDivergenceError)) as expected:
            run_simulation_reference(cfg)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            run_simulation(cfg)


#: 25 h of 10 min periods: check blocks 0-63 and 64-127, then the short block 128-149
BLOCKED = small_cfg(horizon=25.0)
IP_ERROR = "computed iP control is not finite: controller.kp or controller.alpha overflows it"


def inject(monkeypatch, overflow_at=None, diverge_at=None, value=np.inf):
    """Fault the run's tables: the control table's current-T1 coefficient of
    period overflow_at becomes value, and a 100 MW internal gain forces period
    diverge_at.

    The forcing reaches the per-period loop too, so that loop's error text is
    the text the run must raise; returns it, or None if the loop runs clean.
    """
    tables = pvflock.simulate.control_tables
    gains = pvflock.simulate.synth_disturbances

    def faulty_tables(*args):
        rows, bias = tables(*args)
        if overflow_at is not None:
            rows[overflow_at, -1, 0] = value
        return rows, bias

    def huge_gain(t, params):
        w = gains(t, params)
        if diverge_at is not None:
            w[diverge_at, 2] = 1e5
        return w

    monkeypatch.setattr(pvflock.simulate, "control_tables", faulty_tables)
    for module in (pvflock.simulate, loop_oracle):
        monkeypatch.setattr(module, "synth_disturbances", huge_gain)
    try:
        run_simulation_reference(BLOCKED)
    except PlantDivergenceError as err:
        return str(err)
    return None


#: the control values the iP guard must stop, in every kind of period: +inf (what
#: kp = 1e308 gives) under the period's plain id, -inf and NaN under the value's name
OVERFLOWS = [pytest.param(value, period, id=f"{name}{period}")
             for value, name in ((np.inf, ""), (-np.inf, "-inf-"), (np.nan, "nan-"))
             for period in (0, 64, 100, 127, 128, 140, 149)]


class TestBlockChecks:
    """The iP guard and the range check run once per block of periods, and
    still raise the error of the first failing period."""

    def test_blocks_of_the_run(self):
        assert pvflock.simulate._CHECK_BLOCK == 64 and BLOCKED.n_steps == 150

    @pytest.mark.parametrize("value, period", OVERFLOWS)
    def test_overflow_in_any_period(self, value, period, monkeypatch):
        inject(monkeypatch, overflow_at=period, value=value)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(IP_ERROR)}$"):
            run_simulation(BLOCKED)

    @pytest.mark.parametrize("period", [0, 64, 100, 127, 128, 140, 149])
    def test_divergence_in_any_period(self, period, monkeypatch):
        text = inject(monkeypatch, diverge_at=period)
        assert f"left the sane range at t = {(period + 1) / 6:.4f} h" in text
        with pytest.raises(PlantDivergenceError, match=f"^{re.escape(text)}$"):
            run_simulation(BLOCKED)

    @pytest.mark.parametrize("overflow_at, diverge_at", [(70, 90), (90, 70), (80, 80), (64, 127)])
    def test_both_in_one_block_raise_the_earlier(self, overflow_at, diverge_at, monkeypatch):
        # within a period the control is checked before the plant step
        text = inject(monkeypatch, overflow_at=overflow_at, diverge_at=diverge_at)
        if overflow_at <= diverge_at:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(IP_ERROR)}$"):
                run_simulation(BLOCKED)
        else:
            with pytest.raises(PlantDivergenceError, match=f"^{re.escape(text)}$"):
                run_simulation(BLOCKED)

    def test_a_block_runs_to_its_end_before_it_is_checked(self, monkeypatch):
        # a block is checked once its last period ran: the first block's
        # plant steps all ran before the second block's overflow stops the run
        inject(monkeypatch, overflow_at=64)
        reached = []
        check = pvflock.simulate._check_block

        def recording(raw, states, t_next):
            reached.append(states.copy())
            return check(raw, states, t_next)

        monkeypatch.setattr(pvflock.simulate, "_check_block", recording)
        with pytest.raises(ConfigurationError):
            run_simulation(BLOCKED)
        assert [len(states) for states in reached] == [64, 64]
        # every plant step of the second block ran: no state is left at the history's zeros
        assert np.all(reached[1] > 10.0) and np.all(np.isfinite(reached[1]))


class TestSumRows:
    def test_equals_the_left_to_right_cumsum(self):
        # mixed magnitudes make every summation order round differently;
        # 3 000 columns split the 300 rows into blocks of 21
        rng = np.random.default_rng(11)
        p = rng.standard_normal((300, 3000)) * 10.0 ** rng.integers(-8, 9, (300, 3000))
        assert np.array_equal(sum_rows(p), np.cumsum(p, axis=1)[:, -1])
        assert not np.array_equal(p.sum(axis=1), np.cumsum(p, axis=1)[:, -1])
        assert sum_rows(p[:0]).shape == (0,)


class TestBuildFleet:
    def test_initial_conditions_follow_the_contract(self):
        cfg = small_cfg(seed=4)
        states = build_fleet(cfg)
        assert states.shape == (3, 3)
        t1, t2, t3 = states
        assert np.all((cfg.initial_t1_low <= t1) & (t1 <= cfg.initial_t1_high))
        assert np.array_equal(t2, t1)
        assert np.array_equal(t3, t1 + 1.0)
        assert np.array_equal(run_simulation(cfg).t1[0], t1)

    def test_seed_controls_the_draw(self):
        t1_a = build_fleet(small_cfg(seed=4))[0]
        t1_b = build_fleet(small_cfg(seed=4))[0]
        t1_c = build_fleet(small_cfg(seed=5))[0]
        assert np.array_equal(t1_a, t1_b)
        assert not np.array_equal(t1_a, t1_c)


# ---------------------------------------------------------------------------
# serialization

class TestTraceSerialization:
    def test_header_layout(self):
        assert trace_header(2) == (
            "t_hours,pv_kw,sum_p_kw,band_lo_kw,band_hi_kw,infeasible,"
            "T1_1,T2_1,T3_1,u_1_kw,p_1_kw,clamped_1,"
            "T1_2,T2_2,T3_2,u_2_kw,p_2_kw,clamped_2"
        )

    def test_round_trip_preserves_six_significant_digits(self, tmp_path):
        trace = run_simulation(small_cfg())
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.n_buildings == 3 and back.n_steps == trace.n_steps
        np.testing.assert_allclose(back.t, trace.t, rtol=1e-5)
        np.testing.assert_allclose(back.sum_p, trace.sum_p, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(back.t1, trace.t1, rtol=1e-5)
        np.testing.assert_allclose(back.u, trace.u, rtol=1e-5, atol=1e-5)
        assert np.array_equal(back.infeasible, trace.infeasible)
        assert np.array_equal(back.clamped, trace.clamped)

    def test_matches_a_cell_by_cell_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        odd = manual_trace(t=[0.0, 1e-7, 123456.5], pv=[-0.0, 1e16, 2.5e-300],
                           sum_p=[1.0, 999999.5, -3.25], t1=[23.0, -0.0, 1.0 / 3.0])
        odd.u[:] = rng.normal(size=(3, 1)) * 1e5
        odd.clamped[1] = True
        for trace in (run_simulation(small_cfg()), odd):
            path = tmp_path / "trace.csv"
            write_trace(trace, path)
            assert path.read_text() == cell_by_cell(trace)

    def test_a_trace_of_many_blocks_matches_the_cell_by_cell_writer(self, tmp_path):
        # 240 h of 3 buildings: 34 560 cells, two whole default blocks and a short one
        trace = run_simulation(small_cfg(horizon=240.0))
        assert trace.n_steps * 6 * (trace.n_buildings + 1) > pvflock.simulate._FORMAT_BLOCK
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_text() == cell_by_cell(trace)

    def test_the_block_size_never_shows_in_the_file(self, tmp_path, monkeypatch):
        # one run written in blocks of 48 cells (two rows), of exactly one row, of
        # 2^12 cells and of the default; the last row of the first 2^12 and default
        # block and the first row of the next each hold a cell "%.6g" itself formats
        trace = run_simulation(small_cfg(horizon=240.0))
        ncols, default = 6 * (trace.n_buildings + 1), pvflock.simulate._FORMAT_BLOCK
        for block in (1 << 12, default):
            edge = block // ncols
            assert edge < trace.n_steps
            trace.t2[edge - 1, 0] = trace.t2[edge, 2] = 1e-7
        expected = cell_by_cell(trace)
        for block in (48, ncols, 1 << 12, default):
            monkeypatch.setattr(pvflock.simulate, "_FORMAT_BLOCK", block)
            path = tmp_path / f"trace-{block}.csv"
            write_trace(trace, path)
            assert path.read_text() == expected

    def test_fallback_rows_at_the_edges_of_a_block(self, tmp_path, monkeypatch):
        # four rows a block, the last one short: rows 0, 3, 4, 7 and 9 hold
        # cells that "%.6g" itself formats, the rest none
        monkeypatch.setattr(pvflock.simulate, "_FORMAT_BLOCK", 4 * 12)
        t1 = np.linspace(20.0, 25.0, 10)
        t1[[0, 3, 4, 7, 9]] = [1e-7, 0.1666665, np.inf, -np.nan, 1234565.0]
        trace = manual_trace(t=np.arange(10) / 6, pv=np.full(10, 2.5), sum_p=np.zeros(10),
                             t1=t1, infeasible=[True, False] * 5)
        trace.u[[0, 9]] = -999999.5
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_text() == cell_by_cell(trace)

    def test_lf_line_endings_and_flag_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(run_simulation(small_cfg()), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        first_row = raw.decode().splitlines()[1].split(",")
        assert first_row[5] in ("0", "1")

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = run_simulation(small_cfg(horizon=0.0))
        write_trace(trace, path)
        assert path.read_text() == cell_by_cell(trace) == trace_header(3) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file is no warning
            back = read_trace(path)
        assert back.n_steps == 0 and back.n_buildings == 3
        assert back.t1.shape == (0, 3) and back.clamped.dtype == bool

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ProfileError, match="header"):
            read_trace(path)

    def test_read_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(trace_header(1) + "\n0,0,0,0,0,0,23\n")
        with pytest.raises(ProfileError, match="fields"):
            read_trace(path)

    def test_read_names_the_file_line_of_a_bad_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        good = ",".join(["1"] * 12)
        # lines 2 and 4 are fine, line 3 is blank, line 5 has a word in it
        path.write_text(f"{trace_header(1)}\n{good}\n\n{good}\n1,2,x{good[5:]}\n")
        with pytest.raises(ProfileError, match=r"trace\.csv:5: non-numeric field"):
            read_trace(path)
        path.write_text(f"{trace_header(1)}\n{good}\n\n{good},1\n")
        with pytest.raises(ProfileError, match=r"trace\.csv:4: expected 12 fields"):
            read_trace(path)
        # '#' starts no comment: trailing text is a bad number like any other
        path.write_text(f"{trace_header(1)}\n{good}\n\n{good}\n{good} # note\n")
        with pytest.raises(ProfileError, match=r"trace\.csv:5: non-numeric field"):
            read_trace(path)

    def test_read_is_exact_on_the_written_digits(self, tmp_path):
        # the vectorized parse gives the same doubles as float() on each cell
        path = tmp_path / "trace.csv"
        write_trace(run_simulation(small_cfg()), path)
        back = read_trace(path)
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]
        cells = np.array(rows)
        # and every column lands in its own field: the fleet's six, then six per building
        for j, col in enumerate((back.t, back.pv, back.sum_p, back.band_lo, back.band_hi,
                                 back.infeasible)):
            assert np.array_equal(col, cells[:, j])
        for j, col in enumerate((back.t1, back.t2, back.t3, back.u, back.p, back.clamped)):
            assert np.array_equal(col, cells[:, 6 + j::6])


#: values at the edges of the vectorised %.6g: exponent 5 or -4 after rounding,
#: ties (6732.655 lies below its tie and 5600.225 above, yet both scale to an
#: exact .5), exponent form, the smallest subnormal, a near-overflow, zero and
#: the non-finite values
EDGE_VALUES = [9.999995e-5, 1e-4, 1e-5, 99999.95, 999999.5, 1e6, 0.1666665, 2.5, 1234565.0,
               5e-324, 1.7e308, 0.0, 999999.4999999, 0.000123456, 123456.0, 100000.0,
               6732.655, 5600.225, np.inf, np.nan]


class TestCellFormat:
    @given(st.floats())
    def test_a_float_is_written_as_percent_g_writes_it(self, v):
        assert _format_cells(np.array([v]), 1).tobytes() == f"{'%.6g' % v}\n".encode()

    @given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 40))
    def test_rows_of_floats_are_written_as_percent_g_writes_them(self, values, ncols):
        values = values * ncols  # a whole number of rows
        cells = ["%.6g" % v + ("\n" if (k + 1) % ncols == 0 else ",") for k, v in enumerate(values)]
        assert _format_cells(np.array(values), ncols).tobytes() == "".join(cells).encode()

    @pytest.mark.parametrize("v", EDGE_VALUES + [-v for v in EDGE_VALUES])
    def test_edge_values(self, v):
        assert _format_cells(np.array([v]), 1).tobytes() == f"{'%.6g' % v}\n".encode()

    def test_flags_are_written_as_percent_d_writes_them(self):
        flags = np.array([False, True, True, False])
        expected = "".join("%d," % f for f in flags[:3]) + "%d\n" % flags[3]
        assert _format_cells(flags.astype(float), 4).tobytes() == expected.encode()


# ---------------------------------------------------------------------------
# metrics

class TestMetrics:
    settings = dict(epsilon=1.0, comfort_low=22.0, comfort_high=24.0, transient_hours=6.0)

    def test_transient_steps_are_excluded_from_comfort(self):
        trace = manual_trace(
            t=[0.0, 6.0, 12.0],
            pv=[0.0, 0.0, 0.0],
            sum_p=[0.0, 0.0, 0.0],
            t1=[20.0, 21.5, 23.0],  # the 2.0-deep excursion is pre-transient
        )
        report = compute_metrics(trace, **self.settings)
        assert report.comfort_violation_steps == 1
        assert report.comfort_max_depth == pytest.approx(0.5)

    def test_overcooling_and_overheating_both_count(self):
        trace = manual_trace(
            t=[6.0, 7.0], pv=[0.0, 0.0], sum_p=[0.0, 0.0], t1=[21.0, 25.5]
        )
        report = compute_metrics(trace, **self.settings)
        assert report.comfort_violation_steps == 2
        assert report.comfort_max_depth == pytest.approx(1.5)

    def test_tracking_stats_cover_active_steps_only(self):
        trace = manual_trace(
            t=[0.0, 6.0, 12.0],
            pv=[0.0, 10.0, 10.0],
            sum_p=[0.3, 9.5, 8.0],
            t1=[23.0, 23.0, 23.0],
            infeasible=[False, True, False],
        )
        report = compute_metrics(trace, **self.settings)
        assert report.tracking_rms == pytest.approx(np.sqrt((0.25 + 4.0) / 2.0))
        assert report.tracking_within_eps_pct == pytest.approx(50.0)
        assert report.peak_sum_p == pytest.approx(9.5)
        assert report.infeasible_steps == 1

    def test_error_exactly_epsilon_counts_as_within(self):
        trace = manual_trace(
            t=[6.0], pv=[10.0], sum_p=[11.0], t1=[23.0]
        )
        report = compute_metrics(trace, **self.settings)
        assert report.tracking_within_eps_pct == 100.0

    def test_no_pv_reports_not_applicable(self):
        trace = manual_trace(t=[6.0], pv=[0.0], sum_p=[0.0], t1=[23.0])
        report = compute_metrics(trace, **self.settings)
        assert report.tracking_rms is None
        assert report.tracking_within_eps_pct is None
        assert "tracking_rms_kw=n/a" in report.lines()
        assert "tracking_within_eps_pct=n/a" in report.lines()

    def test_zero_transient_counts_every_step(self):
        trace = manual_trace(t=[0.0, 6.0], pv=[0.0, 0.0], sum_p=[0.0, 0.0], t1=[20.0, 23.0])
        strict = compute_metrics(trace, **{**self.settings, "transient_hours": 0.0})
        assert strict.comfort_violation_steps == 1
        assert strict.comfort_max_depth == pytest.approx(2.0)

    def test_all_transient_is_quietly_clean(self):
        trace = manual_trace(t=[0.0, 1.0], pv=[0.0, 0.0], sum_p=[0.0, 0.0], t1=[10.0, 10.0])
        report = compute_metrics(trace, **self.settings)
        assert report.comfort_violation_steps == 0
        assert report.comfort_max_depth == 0.0

    def test_lines_are_key_value_formatted(self):
        trace = manual_trace(t=[6.0], pv=[10.0], sum_p=[10.0], t1=[23.0])
        lines = compute_metrics(trace, **self.settings).lines()
        assert all("=" in line for line in lines)
        assert lines[1] == "comfort_violation_steps=0"
