"""Plant model tests: pinned values, cross-checked routes and the exact period map.

The literature office constants (OFFICE) are used for the pinned
derivative/equilibrium values; the residential defaults and a fast air
node (FAST_AIR) check the period map where the plant moves most within a
period.  scipy appears here only as the independent high-accuracy reference.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from plant_oracles import OFFICE, equilibrium, plant_derivative, plant_period, zoh_update
from pvflock import (
    BuildingParams,
    ConfigurationError,
    DisturbanceParams,
    FleetConfig,
    PlantDivergenceError,
    ScenarioConfig,
    parse_config_text,
    run_simulation,
)
from pvflock.plant import SANITY_RANGE, build_matrices, check_sane, transition_map
from pvflock.scenario import synth_disturbances

RESIDENTIAL = BuildingParams()
FAST_AIR = BuildingParams(c1=150.0)  # 3600/c1 = 24 degC/h per kW
W0 = np.array([30.0, 0.1, 1.0])  # (d1, d2, d3)
X0 = np.array([24.0, 23.0, 26.0])  # (T1, T2, T3)
ZERO = np.zeros(3)


# ---------------------------------------------------------------------------
# right-hand side

class TestDerivative:
    def test_pinned_values_cooling(self):
        # evaluated independently in exact rational arithmetic
        d = plant_derivative(X0, -2.0, W0, OFFICE)
        assert d[0] == pytest.approx(-0.3070542967079949, rel=1e-12)
        assert d[1] == pytest.approx(0.15161212121212123, rel=1e-12)
        assert d[2] == pytest.approx(0.4082330097087379, rel=1e-12)

    def test_pinned_values_free_response(self):
        d = plant_derivative(X0, 0.0, W0, OFFICE)
        assert d[0] == pytest.approx(-0.2993587002992732, rel=1e-12)
        # only the air node sees the control input
        d2 = plant_derivative(X0, -2.0, W0, OFFICE)
        assert d[1] == d2[1] and d[2] == d2[2]

    def test_control_enters_linearly_through_c1(self):
        p = OFFICE
        base = plant_derivative(X0, 0.0, W0, p)
        moved = plant_derivative(X0, 2.0, W0, p)
        assert moved[0] - base[0] == pytest.approx(3600.0 * 2.0 / p.c1, rel=1e-12)

    def test_matrix_route_matches_direct_route(self):
        # plant_derivative and build_matrices are written separately; they
        # must describe the same dynamics
        rng = np.random.default_rng(7)
        for p in (OFFICE, RESIDENTIAL):
            a, b, c = build_matrices(p)
            for _ in range(25):
                x = rng.uniform(10, 40, 3)
                u = rng.uniform(-3, 1)
                w = rng.uniform([0, 0, 0], [45, 2, 2])
                direct = plant_derivative(x, u, w, p)
                matrix = a @ x + b * u + c @ w
                np.testing.assert_allclose(direct, matrix, rtol=1e-12, atol=1e-14)

    def test_uniform_temperature_is_stationary_without_gains(self):
        # every node at the outdoor temperature, no gains, no control:
        # nothing moves (row sums of A cancel against the d1 column of C)
        for p in (OFFICE, RESIDENTIAL):
            for theta in (0.0, 23.0, 41.5):
                d = plant_derivative(np.full(3, theta), 0.0, np.array([theta, 0.0, 0.0]), p)
                assert d == pytest.approx(ZERO, abs=1e-12)


# ---------------------------------------------------------------------------
# parameter and input validation

class TestValidation:
    @pytest.mark.parametrize("field", ["c1", "c2", "c3", "k1", "k2", "k4", "k5"])
    def test_nonpositive_constants_rejected(self, field):
        with pytest.raises(ConfigurationError):
            BuildingParams(**{field: 0.0})
        with pytest.raises(ConfigurationError):
            BuildingParams(**{field: -1.0})

    # the disturbances are checked once, as the parameters of the synthetic day
    def test_disturbance_gains_must_be_nonnegative(self):
        for field in ("d2_peak", "d3_day", "d3_night"):
            with pytest.raises(ConfigurationError):
                DisturbanceParams(**{field: -0.1})
        DisturbanceParams(d1_mean=-10.0)  # cold outdoor air is fine

    def test_non_finite_disturbance_rejected(self):
        for field in ("d1_mean", "d1_amp", "d2_peak", "d3_day", "d3_night"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ConfigurationError):
                    DisturbanceParams(**{field: bad})

    # old files may still set the RK4 substeps the exact plant map replaced;
    # the key is ignored, but a count below 1 is still rejected
    def test_substeps_must_be_positive(self):
        for line in ("scenario.substeps = 0", "scenario.substeps = -3"):
            with pytest.raises(ConfigurationError, match="substeps"):
                parse_config_text(line)


# ---------------------------------------------------------------------------
# integrator

class TestIntegrator:
    def test_transition_map_matches_expm(self):
        # the exact period update, to rounding, on both parameter sets and on
        # a fast air node whose time constant is under an hour
        for p in (OFFICE, RESIDENTIAL, FAST_AIR):
            a, _, _ = build_matrices(p)
            for dt in (1 / 60, 1 / 6, 1.0):
                s = transition_map(p, dt).s
                np.testing.assert_allclose(s, zoh_update(a, dt), rtol=0, atol=1e-14)

    def test_against_adaptive_reference_over_24h(self):
        # chain 144 control periods and compare with solve_ivp at 1e-10
        p = OFFICE
        a, b, c = build_matrices(p)
        forcing = b * (-2.0) + c @ W0
        sol = solve_ivp(
            lambda t, x: a @ x + forcing, (0.0, 24.0), X0,
            rtol=1e-10, atol=1e-10,
        )
        tm = transition_map(p, 1 / 6)
        x = X0[:, None]
        for _ in range(144):
            x = plant_period(x, np.array([-2.0]), tm.c @ W0, tm)
        assert np.max(np.abs(x[:, 0] - sol.y[:, -1])) < 1e-6

    @pytest.mark.parametrize("n", [1, 3])
    def test_the_run_steps_its_plant_as_plant_period(self, n):
        # plant_period is the run's own update: each state of a run's trace
        # follows bitwise from the period before it, its control and its forcing
        cfg = ScenarioConfig(fleet=FleetConfig(n_buildings=n), horizon=12.0)
        tr = run_simulation(cfg)
        tm = transition_map(cfg.building, cfg.fleet.sample_dt)
        cw = synth_disturbances(tr.t, cfg.disturbance) @ tm.c.T
        x = np.stack([tr.t1, tr.t2, tr.t3], axis=1)  # (steps, 3, n)
        for k in range(tr.n_steps - 1):
            assert plant_period(x[k], tr.u[k], cw[k], tm).tobytes() == x[k + 1].tobytes()

    def test_batch_matches_individual_buildings(self):
        p = RESIDENTIAL
        states = np.array([[24.0, 26.0, 22.5], [24.0, 25.0, 22.5], [25.0, 27.0, 23.5]])
        u = np.array([-1.0, -3.0, 0.0])
        tm = transition_map(p, 1 / 6)
        batch = plant_period(states, u, tm.c @ W0, tm)
        for i in range(3):
            # one building is a (3, 1) block
            single = plant_period(states[:, i:i + 1], u[i:i + 1], tm.c @ W0, tm)
            assert batch[:, i] == pytest.approx(single[:, 0], rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(18, 30),
        u=st.floats(-3, 0),
        d1=st.floats(-5, 45),
    )
    def test_one_period_stays_physical(self, t, u, d1):
        tm = transition_map(RESIDENTIAL, 1 / 6)
        out = plant_period(
            np.array([[t], [t], [t + 1.0]]), np.array([u]), tm.c @ np.array([d1, 0.2, 0.5]), tm,
        )
        lo, hi = SANITY_RANGE
        assert np.all((lo <= out) & (out <= hi))
        check_sane(out, 1 / 6)


# ---------------------------------------------------------------------------
# equilibrium and sanity guard

class TestEquilibrium:
    def test_derivative_vanishes_at_equilibrium(self):
        for p in (OFFICE, RESIDENTIAL):
            for u in (0.0, -2.0):
                eq = equilibrium(u, W0, p)
                d = plant_derivative(eq, u, W0, p)
                assert d == pytest.approx(ZERO, abs=1e-9)

    def test_pinned_free_equilibrium(self):
        # closed-form elimination gives T1 = d1 + (u + 2 d2 + d3)(k4+k5)/(k4 k5),
        # T2 = T1 + d2/(k1+k2), T3 = (k5 T1 + k4 d1)/(k4+k5); evaluated in
        # rational arithmetic for the literature set at u=0, w=(30, 0.1, 1)
        eq = equilibrium(0.0, W0, OFFICE)
        assert eq[0] == pytest.approx(30.091427595628414, rel=1e-12)
        assert eq[1] == pytest.approx(30.092227723648900, rel=1e-12)
        assert eq[2] == pytest.approx(30.039344262295080, rel=1e-12)

    def test_integration_preserves_equilibrium(self):
        p = RESIDENTIAL
        eq = equilibrium(-1.0, W0, p)
        tm = transition_map(p, 1 / 6)
        x = eq[:, None]
        for _ in range(60):
            x = plant_period(x, np.array([-1.0]), tm.c @ W0, tm)
        assert x[:, 0] == pytest.approx(eq, abs=1e-9)

    def test_cooling_authority_on_residential_scale(self):
        # 3 kW of cooling must move the residential equilibrium by whole
        # degrees, which is what makes the 22-24 degC band reachable
        p = RESIDENTIAL
        free = equilibrium(0.0, W0, p)[0]
        cooled = equilibrium(-3.0, W0, p)[0]
        assert free - cooled > 5.0

    def test_sanity_guard_raises_outside_range(self):
        for bad in ((100.0, 20.0, 20.0), (20.0, -40.0, 20.0), (20.0, 20.0, math.nan)):
            with pytest.raises(PlantDivergenceError):
                check_sane(np.array(bad)[:, None], 0.0)
        check_sane(np.array([[-20.0], [60.0], [0.0]]), 0.0)  # closed interval

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 60.5, -20.5])
    @pytest.mark.parametrize("node", [0, 1, 2])
    def test_sanity_guard_names_the_first_bad_building(self, bad, node):
        # one min and one max test pass a sane block; a failing one must
        # still name the first bad column, here the middle of five
        states = np.full((3, 5), 23.0)
        states[node, 2] = bad
        states[2 - node, 4] = 100.0
        with pytest.raises(PlantDivergenceError, match=r"^building 2 left the sane range at t = 1\.5000 h"):
            check_sane(states, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, 60.5])
    def test_sanity_guard_names_the_first_bad_block_of_a_stack(self, bad):
        # a stack of four periods' states: periods 2 and 3 fail, and period
        # 2's first bad building is named with period 2's time
        states = np.full((4, 3, 5), 23.0)
        states[2, 1, 3] = bad
        states[3, 0, 0] = 100.0
        check_sane(states[:2], np.array([0.5, 0.75]))
        with pytest.raises(PlantDivergenceError, match=r"^building 3 left the sane range at t = 1\.0000 h"):
            check_sane(states, np.array([0.5, 0.75, 1.0, 1.25]))

    def test_sanity_guard_passes_an_empty_stack(self):
        # a run of no steps reaches no state: its (0, 3, n) stack has no min or max
        check_sane(np.empty((0, 3, 5)), np.empty(0))

    def test_diverging_period_is_flagged(self):
        hot = np.full((3, 1), 59.9)
        blazing = np.array([45.0, 2.0, 50.0])
        tm = transition_map(RESIDENTIAL, 1 / 6)
        out = plant_period(hot, np.array([0.0]), tm.c @ blazing, tm)
        with pytest.raises(PlantDivergenceError, match=r"^building 0 left the sane range at t = 0\.1667 h"):
            check_sane(out, 1 / 6)
