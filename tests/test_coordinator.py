"""Band construction, even splitting, clamping and the fleet step contract."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pvflock.simulate
from pvflock import (
    ConfigurationError,
    FleetConfig,
    PlantDivergenceError,
    ProfileError,
    PvSourceConfig,
    ScenarioConfig,
    load_profile_csv,
    run_simulation,
)
from pvflock.coordinator import building_bounds
from pvflock.plant import check_sane

CFG = FleetConfig()  # 13 buildings, epsilon 1, hvac_max 3, dt 1/6


def bounds_at(pv: float, cfg: FleetConfig = CFG):
    """building_bounds for one PV value: (band_lo, band_hi, lo, hi, infeasible)."""
    return tuple(col.item() for col in building_bounds(pv, cfg))


# ---------------------------------------------------------------------------
# aggregate band: the first two columns of building_bounds

class TestPowerBand:
    def test_inactive_when_pv_zero(self):
        assert bounds_at(0.0)[:2] == (0.0, 0.0)

    def test_symmetric_band_when_pv_clears_epsilon(self):
        assert bounds_at(5.0)[:2] == (4.0, 6.0)

    def test_lower_edge_clips_at_zero(self):
        assert bounds_at(0.5)[:2] == (0.0, 1.5)

    def test_rejects_negative_or_non_finite_pv(self, tmp_path):
        # building_bounds trusts its PV column; a measured profile is checked
        # as it loads (a synthetic peak by PvSourceConfig), and one bad row
        # anywhere in the file is enough
        path = tmp_path / "pv.csv"
        for bad in (-0.1, math.inf, math.nan):
            path.write_text(f"t_hours,value\n0,0\n1,5\n2,{bad}\n3,1\n")
            with pytest.raises(ProfileError, match=":4:"):
                load_profile_csv(path, non_negative=True)

    def test_rejects_bad_epsilon(self):
        # the band takes its epsilon from the fleet config, which checks it
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ConfigurationError):
                FleetConfig(epsilon=bad)


# ---------------------------------------------------------------------------
# per-building split: the last three columns of building_bounds

class TestPerBuildingBounds:
    def test_inactive_band_frees_the_hvac_range(self):
        assert bounds_at(0.0)[2:] == (0.0, 3.0, False)

    def test_even_split_at_the_headline_fleet_point(self):
        # pv = 13 kW over 13 buildings: each gets [12/13, 14/13]
        _, _, lo, hi, infeasible = bounds_at(13.0)
        assert lo == pytest.approx(12.0 / 13.0, rel=1e-12)
        assert hi == pytest.approx(14.0 / 13.0, rel=1e-12)
        assert not infeasible

    def test_lower_edge_clips_at_zero(self):
        _, _, lo, hi, _ = bounds_at(0.5)
        assert lo == 0.0
        assert hi == pytest.approx(1.5 / 13.0)

    def test_upper_edge_clips_at_hvac_max(self):
        cfg = FleetConfig(n_buildings=2, epsilon=1.0, hvac_max=3.0)
        _, _, lo, hi, infeasible = bounds_at(5.5, cfg)
        assert lo == pytest.approx(2.25)
        assert hi == pytest.approx(3.0)
        assert not infeasible

    def test_oversized_pv_is_flagged_infeasible(self):
        # 70 kW over 14 buildings wants >= 69/14 kW each, beyond hvac_max
        assert bounds_at(70.0, FleetConfig(n_buildings=14))[2:] == (3.0, 3.0, True)

    def test_widening_epsilon_widens_the_interval(self):
        for eps_small, eps_big in [(0.5, 1.0), (1.0, 2.0)]:
            small = bounds_at(8.0, FleetConfig(epsilon=eps_small))
            big = bounds_at(8.0, FleetConfig(epsilon=eps_big))
            assert big[2] <= small[2] and big[3] >= small[3]

    def test_run_column_matches_one_period_at_a_time(self):
        # a whole run's column, with inert, clipped, split and infeasible
        # periods, gives each period what a call on that period alone gives
        cfg = FleetConfig(n_buildings=2)
        pv = np.array([0.0, 0.5, 3.0, 5.5, 5.0 + 1e-15, 7.5, 30.0, 0.0])
        columns = building_bounds(pv, cfg)
        assert all(col.shape == pv.shape for col in columns)
        assert columns[4].dtype == bool
        for k, value in enumerate(pv):
            assert tuple(col[k] for col in columns) == bounds_at(value, cfg)

    @given(
        pv=st.floats(0.01, 60.0),
        epsilon=st.floats(0.1, 5.0),
        n=st.integers(1, 30),
        draws=st.lists(st.floats(-6, 6), min_size=1, max_size=30),
    )
    def test_summed_clamps_stay_inside_the_aggregate_band(self, pv, epsilon, n, draws):
        # the whole coordination argument: n values from the per-building
        # interval can never leave the aggregate band
        cfg = FleetConfig(n_buildings=n, epsilon=epsilon)
        band_lo, band_hi, lo, hi, infeasible = bounds_at(pv, cfg)
        if infeasible:
            # only PV beyond what hvac_max per building absorbs, and then every building draws it
            assert (pv - epsilon) / n > cfg.hvac_max
            assert lo == hi == cfg.hvac_max
            return
        draws = np.array((draws * n)[:n])
        # the run clamps the raw thermal controls onto [-hi, -lo] and draws p = -u
        total = sum((-np.minimum(np.maximum(-draws, -hi), -lo)).tolist())
        slack = 1e-9 * max(1.0, pv)
        assert band_lo - slack <= total <= band_hi + slack


# ---------------------------------------------------------------------------
# clamping

def first_control(t1: float, pv: PvSourceConfig = PvSourceConfig(kind="off"), n: int = 1):
    """(p, u, clamped) of building 0 in period 0 of a run whose buildings start at t1.

    With alpha = 4, kp = 2 and no window yet the raw control is exactly
    -(t1 - 23) / 2, so the clamp alone decides what the run applies.
    """
    cfg = ScenarioConfig(fleet=FleetConfig(n_buildings=n), pv=pv, horizon=1.0, alpha=4.0, kp=2.0,
                         initial_t1_low=t1, initial_t1_high=t1)
    tr = run_simulation(cfg)
    return tr.p[0, 0], tr.u[0, 0], tr.clamped[0, 0]


class TestClampToBounds:
    """The run's clamp of a raw control onto the period's bounds, in period 0."""

    def test_inside_passes_through(self):
        assert first_control(27.0) == (2.0, -2.0, False)  # raw -2

    def test_overdraw_clamps_to_upper(self):
        assert first_control(33.0) == (3.0, -3.0, True)  # raw -5

    def test_heating_wish_maps_to_minimum_draw(self, tmp_path):
        # raw +0.5 under a 12 kW band split over 13 buildings: the least draw, 11/13
        lo = bounds_at(12.0)[2]
        assert lo == pytest.approx(11.0 / 13.0)
        assert first_control(22.0, constant_pv(tmp_path, 12.0), n=13) == (lo, -lo, True)

    def test_boundary_is_not_a_clamp(self):
        p, _, clamped = first_control(29.0)  # raw -3, exactly hvac_max
        assert (p, clamped) == (3.0, False)


# ---------------------------------------------------------------------------
# fleet step: one control period of run_simulation

def constant_pv(tmp_path, kw: float) -> PvSourceConfig:
    path = tmp_path / "pv.csv"
    path.write_text("t_hours,value\n" + "".join(f"{h},{kw}\n" for h in range(5)))
    return PvSourceConfig(kind="csv", csv_path=str(path))


def fleet_run(n: int, pv: PvSourceConfig, t1: tuple[float, float] = (22.5, 26.5), horizon=4.0):
    cfg = ScenarioConfig(
        fleet=FleetConfig(n_buildings=n), pv=pv, horizon=horizon,
        initial_t1_low=t1[0], initial_t1_high=t1[1],
    )
    return run_simulation(cfg)


class TestCoordinatorStep:
    """Each control period of run_simulation: band, split, clamp, plant update."""

    def test_record_layout_and_band(self, tmp_path):
        tr = fleet_run(13, constant_pv(tmp_path, 13.0))
        assert tr.t[0] == 0.0 and tr.pv[0] == 13.0
        assert (tr.band_lo[0], tr.band_hi[0]) == (12.0, 14.0)
        assert tr.t1.shape == tr.u.shape == tr.p.shape == (24, 13)
        assert np.array_equal(tr.u, -tr.p)
        assert np.array_equal(tr.sum_p, tr.p.sum(axis=1))
        assert not tr.infeasible.any()

    def test_identical_buildings_stay_identical(self, tmp_path):
        tr = fleet_run(13, constant_pv(tmp_path, 13.0), t1=(25.0, 25.0))
        for col in (tr.t1, tr.t2, tr.t3, tr.u, tr.p):
            assert np.all(col == col[:, :1])

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 130])
    def test_identical_buildings_stay_bitwise_identical_at_blas_tail_sizes(self, n, tmp_path):
        # BLAS takes the plant's columns in blocks and the last few in a tail
        # kernel; every column must still be summed in the same order
        tr = fleet_run(n, constant_pv(tmp_path, float(n)), t1=(25.0, 25.0))
        for col in (tr.t1, tr.t2, tr.t3, tr.u, tr.p, tr.clamped):
            bits = np.ascontiguousarray(col).view(np.uint8).reshape(tr.n_steps, n, -1)
            assert np.all(bits == bits[:, :1])

    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_the_clamp_keeps_the_zero_signs_of_maximum_then_minimum(self, n, monkeypatch):
        # the clamp on raw controls of exactly zero, against bounds of +0 and -0 and
        # against pinned ones: where the raw control and a bound tie, maximum and
        # minimum give the bound's bits (ndarray.clip, with bounds broadcast from
        # one value, can give the raw control's).  A product's sum starts at +0,
        # so with zero rows a bias of +0 or -0 makes a raw control of +0.
        pairs = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 3.0), (-0.0, 3.0),
                 (3.0, 3.0), (1.5, 1.5)]
        combos = [(b, lo, hi) for b in (0.0, -0.0) for lo, hi in pairs]
        cfg = ScenarioConfig(fleet=FleetConfig(n_buildings=n), horizon=4.0)
        bias, lo, hi = (np.resize(col, cfg.n_steps) for col in zip(*combos))
        tables = pvflock.simulate.control_tables

        def zero_law(*args):
            rows, _ = tables(*args)
            return np.zeros_like(rows), bias[:, None]

        def bounds(pv, fleet):
            zeros = np.zeros_like(pv)
            return zeros, zeros, lo, hi, (lo == hi) & (lo > 0)

        monkeypatch.setattr(pvflock.simulate, "control_tables", zero_law)
        monkeypatch.setattr(pvflock.simulate, "building_bounds", bounds)
        tr = run_simulation(cfg)
        raw = np.zeros((cfg.n_steps, n)) + bias[:, None]
        assert not np.signbit(raw).any()
        u = np.minimum(np.maximum(raw, -hi[:, None]), -lo[:, None])
        assert np.ascontiguousarray(tr.u).tobytes() == u.tobytes()
        assert tr.p.tobytes() == np.negative(u).tobytes()
        assert np.signbit(u).any() and not np.signbit(u).all()

    def test_applied_power_respects_bounds_every_step(self, tmp_path):
        tr = fleet_run(13, constant_pv(tmp_path, 13.0))
        lo, hi = 12.0 / 13.0, 14.0 / 13.0
        assert np.all((tr.p >= lo - 1e-12) & (tr.p <= hi + 1e-12))
        assert np.all((tr.band_lo - 1e-9 <= tr.sum_p) & (tr.sum_p <= tr.band_hi + 1e-9))

    def test_zero_pv_leaves_regulation_unconstrained_above(self):
        tr = fleet_run(13, PvSourceConfig(kind="off"), t1=(26.5, 26.5))
        assert not tr.band_hi.any()
        assert np.all((tr.p >= 0.0) & (tr.p <= 3.0))
        assert tr.p[0, 0] == pytest.approx(2.0 * 3.5 / 5.0)  # -(kp*e)/alpha, no clamp

    def test_controller_window_records_the_clamped_value(self, tmp_path):
        # pv forces a draw even though the building wants almost none
        tr = fleet_run(1, constant_pv(tmp_path, 2.0), t1=(23.0, 23.0))
        assert tr.clamped[0, 0]
        assert tr.u[0, 0] == -1.0  # the bound, not the raw wish

    def test_divergence_names_the_building(self):
        states = np.array([[24.0, 24.0, 60.5], [24.0, 61.0, 24.0], [25.0, 25.0, 25.0]])
        with pytest.raises(PlantDivergenceError, match="building 1 left the sane range at t = 0.5000 h"):
            check_sane(states, 0.5)
        check_sane(states[:, :1], 0.5)

    def test_infeasible_step_pins_and_flags(self, tmp_path):
        tr = fleet_run(2, constant_pv(tmp_path, 30.0))
        assert tr.infeasible.all()
        assert np.all(tr.p == 3.0)
