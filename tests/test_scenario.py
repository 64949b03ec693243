"""Synthetic profiles, CSV profiles and the flat config format."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from pvflock import (
    BuildingParams,
    ConfigurationError,
    DisturbanceParams,
    FleetConfig,
    Profile,
    ProfileError,
    PvSourceConfig,
    ScenarioConfig,
    load_config,
    load_profile_csv,
    parse_config_text,
)
from pvflock.cli import main
from pvflock.scenario import synth_disturbances, synth_pv


# ---------------------------------------------------------------------------
# synthetic day

class TestSyntheticDay:
    D = DisturbanceParams()

    def test_outdoor_sinusoid_pinned_points(self):
        # 28 + 6 sin(2 pi (h-9)/24): coolest 3:00, mean at 9:00, peak 15:00
        assert synth_disturbances(3.0, self.D)[0] == pytest.approx(22.0, abs=1e-12)
        assert synth_disturbances(9.0, self.D)[0] == pytest.approx(28.0, abs=1e-12)
        assert synth_disturbances(15.0, self.D)[0] == pytest.approx(34.0, abs=1e-12)

    def test_solar_bell_zero_outside_daylight(self):
        for h in (0.0, 3.0, 5.99, 20.01, 23.0):
            assert synth_disturbances(h, self.D)[1] == 0.0
        # the window edges carry no energy either (sin of 0 and pi)
        assert synth_disturbances(6.0, self.D)[1] == pytest.approx(0.0, abs=1e-30)
        assert synth_disturbances(20.0, self.D)[1] == pytest.approx(0.0, abs=1e-30)

    def test_solar_bell_peaks_at_13(self):
        assert synth_disturbances(13.0, self.D)[1] == pytest.approx(self.D.d2_peak)
        # strictly below the peak away from 13:00
        assert synth_disturbances(10.0, self.D)[1] < self.D.d2_peak

    def test_solar_bell_symmetric_about_13(self):
        for off in (1.0, 2.5, 4.0):
            left = synth_disturbances(13.0 - off, self.D)[1]
            right = synth_disturbances(13.0 + off, self.D)[1]
            assert left == pytest.approx(right, rel=1e-12)

    def test_internal_gain_day_night_step(self):
        assert synth_disturbances(8.0, self.D)[2] == self.D.d3_day
        assert synth_disturbances(12.0, self.D)[2] == self.D.d3_day
        assert synth_disturbances(18.0, self.D)[2] == self.D.d3_day
        assert synth_disturbances(18.5, self.D)[2] == self.D.d3_night
        assert synth_disturbances(3.0, self.D)[2] == self.D.d3_night

    def test_everything_is_24h_periodic(self):
        for t in (0.0, 7.3, 13.0, 21.9):
            a = synth_disturbances(t, self.D)
            b = synth_disturbances(t + 24.0, self.D)
            assert a == pytest.approx(b, rel=1e-12)
            assert synth_pv(t, 12.0) == pytest.approx(synth_pv(t + 48.0, 12.0), rel=1e-12)

    def test_pv_shares_the_solar_shape(self):
        assert synth_pv(13.0, 12.0) == pytest.approx(12.0)
        assert synth_pv(3.0, 12.0) == 0.0
        assert synth_pv(9.0, 12.0) / 12.0 == pytest.approx(
            synth_disturbances(9.0, self.D)[1] / self.D.d2_peak, rel=1e-12
        )

    def test_a_column_of_times_matches_one_time_at_a_time(self):
        # a run evaluates the whole grid in one call; every row must be what
        # the same time gives on its own, bit for bit
        t = np.arange(433) * (1.0 / 6.0)
        table = synth_disturbances(t, self.D)
        pv = synth_pv(t, 12.0)
        assert table.shape == (433, 3) and pv.shape == (433,)
        for k in range(0, 433, 7):
            assert table[k].tolist() == synth_disturbances(t[k], self.D).tolist()
            assert pv[k] == synth_pv(t[k], 12.0)

    def test_pv_peak_validation(self, tmp_path):
        # synth_pv trusts its peak: the config checks pv.peak_kw, and
        # gen-profile checks --peak through the same PvSourceConfig
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                PvSourceConfig(peak=bad)
            assert main(["gen-profile", "pv", str(tmp_path / "pv.csv"), "--peak", str(bad)]) == 1
        with pytest.raises(ConfigurationError, match="peak"):
            parse_config_text("pv.peak_kw = -1")

    def test_disturbance_params_validation(self):
        with pytest.raises(ConfigurationError):
            DisturbanceParams(d2_peak=-0.1)
        with pytest.raises(ConfigurationError):
            DisturbanceParams(d1_mean=math.nan)


# ---------------------------------------------------------------------------
# CSV profiles

class TestProfile:
    def test_linear_interpolation(self):
        prof = Profile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 6.0, 12.0]))
        assert prof.value_at(0.25) == pytest.approx(3.0)
        assert prof.value_at(0.0) == 0.0
        assert prof.value_at(1.0) == 12.0

    def test_out_of_span_query_raises(self):
        prof = Profile(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ProfileError):
            prof.value_at(-0.01)
        with pytest.raises(ProfileError):
            prof.value_at(1.01)
        # an array is checked once, and the message names its first stray time
        with pytest.raises(ProfileError, match=r"t = 1\.5 h outside the profile span \[0\.0, 1\.0\]"):
            prof.value_at(np.array([0.0, 0.5, 1.5, 2.0]))

    def test_array_query_interpolates_every_time(self):
        prof = Profile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 6.0, 12.0]))
        np.testing.assert_array_equal(
            prof.value_at(np.array([0.0, 0.25, 0.75, 1.0])), [0.0, 3.0, 9.0, 12.0]
        )

    def test_needs_two_rows(self):
        with pytest.raises(ProfileError):
            Profile(np.array([0.0]), np.array([1.0]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ProfileError):
            Profile(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_csv_with_a_gap_loads_and_interpolates(self, tmp_path):
        # a PV log that lost two hours: np.interp only needs increasing times
        path = tmp_path / "pv.csv"
        path.write_text("t_hours,value\n0,0\n1,2\n3,6\n3.5,1\n")
        prof = load_profile_csv(path, non_negative=True)
        np.testing.assert_array_equal(
            prof.value_at(np.array([0.5, 1.0, 2.0, 2.5, 3.25])), [1.0, 2.0, 4.0, 5.0, 3.5]
        )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "pv.csv"
        path.write_text("t_hours,value\n0,0\n0.5,6\n1,12\n")
        prof = load_profile_csv(path)
        assert prof.value_at(0.25) == pytest.approx(3.0)
        # blank lines (before the header too), CRLF endings and spaces
        # around cells and header fields do not change what is read
        path.write_bytes(b"\r\n t_hours , value \r\n 0 ,0\r\n  \r\n0.5, 6 \r\n\t1,12\r\n\r\n")
        prof = load_profile_csv(path)
        np.testing.assert_array_equal(prof.t, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(prof.values, [0.0, 6.0, 12.0])

    def test_csv_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            load_profile_csv(tmp_path / "nope.csv")

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,power\n0,0\n1,1\n")
        with pytest.raises(ProfileError, match="t_hours,value"):
            load_profile_csv(path)

    def test_csv_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_hours,value\n0,0\nnot,a,row\n")
        with pytest.raises(ProfileError, match=":3:"):
            load_profile_csv(path)
        # a blank line counts: the bad row is the file's fifth line
        path.write_text("t_hours,value\n0,0\n\n1,1\n2,oops\n")
        with pytest.raises(ProfileError, match=":5:"):
            load_profile_csv(path)

    def test_csv_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_hours,value\n0,zero\n1,1\n")
        with pytest.raises(ProfileError, match="non-numeric"):
            load_profile_csv(path)

    def test_csv_rejects_negative_when_asked(self, tmp_path):
        path = tmp_path / "pv.csv"
        path.write_text("t_hours,value\n0,1\n1,-0.5\n")
        load_profile_csv(path)  # fine as a generic profile
        with pytest.raises(ProfileError, match="negative"):
            load_profile_csv(path, non_negative=True)


# ---------------------------------------------------------------------------
# config format

class TestConfig:
    def test_empty_text_gives_the_default_scenario(self):
        cfg = parse_config_text("")
        assert cfg.fleet.n_buildings == 13
        assert cfg.fleet.epsilon == 1.0
        assert cfg.fleet.hvac_max == 3.0
        assert cfg.fleet.sample_dt == pytest.approx(1.0 / 6.0)
        assert cfg.horizon == 72.0 and cfg.n_steps == 432
        assert cfg.setpoint == 23.0
        assert (cfg.comfort_low, cfg.comfort_high) == (22.0, 24.0)
        assert cfg.alpha == 5.0 and cfg.kp == 2.0
        assert cfg.window_capacity == 3
        assert cfg.pv.kind == "synthetic" and cfg.pv.peak == 12.0
        assert cfg.building == BuildingParams()
        assert cfg.building.c2 == 6000.0
        assert cfg.disturbance.d2_peak == 0.04
        assert cfg.disturbance.d3_day == 0.1

    def test_every_section_parses(self):
        cfg = parse_config_text(
            """
            # a fleet of two buildings on a coarser clock
            scenario.horizon_hours = 12
            scenario.setpoint_c = 22.5
            scenario.comfort_low_c = 21
            scenario.comfort_high_c = 24.5
            scenario.transient_hours = 2
            scenario.ramp_hours = 1.0
            scenario.initial_t1_low_c = 23
            scenario.initial_t1_high_c = 25
            scenario.seed = 7
            scenario.substeps = 4
            fleet.n_buildings = 2
            fleet.epsilon_kw = 0.5
            fleet.hvac_max_kw = 2.5
            fleet.sample_dt_hours = 0.25   # 15 minutes
            controller.alpha = 4
            controller.kp = 1.5
            controller.window_capacity = 5
            building.c1 = 1200
            building.k5 = 0.2
            disturbance.d1_mean_c = 26
            disturbance.d3_day_kw = 0.2
            pv.source = off
            output.path = out.csv
            """
        )
        assert cfg.horizon == 12.0 and cfg.fleet.sample_dt == 0.25
        assert cfg.n_steps == 48
        assert cfg.setpoint == 22.5 and cfg.comfort_high == 24.5
        assert cfg.seed == 7
        assert cfg.fleet.n_buildings == 2 and cfg.fleet.epsilon == 0.5
        assert cfg.alpha == 4.0 and cfg.kp == 1.5
        assert cfg.window_capacity == 5
        assert cfg.building.c1 == 1200.0 and cfg.building.k5 == 0.2
        assert cfg.building.c3 == 4500.0  # untouched keys keep their defaults
        assert cfg.disturbance.d1_mean == 26.0 and cfg.disturbance.d3_day == 0.2
        assert cfg.pv.kind == "off"
        assert cfg.output_path == "out.csv"
        assert cfg.ramp_hours == 1.0

    def test_unknown_key_is_an_error_with_line_number(self):
        with pytest.raises(ConfigurationError, match=r":2: unknown config key"):
            parse_config_text("\nfleet.size = 13\n")

    def test_bad_value_is_an_error(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_config_text("fleet.n_buildings = thirteen")

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_text("scenario.horizon_hours 72")

    def test_unknown_estimator_is_an_error(self):
        # there is one estimator, so choosing one is not a setting
        for value in ("algebraic", "closed_loop"):
            with pytest.raises(ConfigurationError, match="unknown config key 'controller.estimator'"):
                parse_config_text(f"controller.estimator = {value}")

    @pytest.mark.parametrize(
        "line", ["controller.alpha = 0", "controller.kp = 0", "scenario.ramp_hours = -1"]
    )
    def test_bad_controller_settings_fail_at_load(self, line):
        with pytest.raises(ConfigurationError):
            parse_config_text(line)

    def test_horizon_must_sit_on_the_grid(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            parse_config_text("scenario.horizon_hours = 71.9")

    def test_comfort_band_must_bracket_the_setpoint(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("scenario.setpoint_c = 25")

    def test_window_capacity_must_be_odd(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("controller.window_capacity = 4")

    def test_window_capacity_must_leave_an_estimate(self):
        # the 432-step default day estimates F from step c on, so c = 431
        # estimates once and c = 433 never; an empty run needs no window
        assert ScenarioConfig(window_capacity=431).n_steps == 432
        for c in (433, 10**12 + 1):
            with pytest.raises(ConfigurationError, match="window_capacity"):
                ScenarioConfig(window_capacity=c)
        assert ScenarioConfig(horizon=0.0, window_capacity=10**12 + 1).n_steps == 0

    def test_csv_pv_requires_a_path(self):
        with pytest.raises(ConfigurationError, match="csv_path"):
            parse_config_text("pv.source = csv")

    def test_bad_pv_source_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("pv.source = wind")

    def test_load_config_reads_a_file(self, config_file):
        path = config_file("scenario.seed = 3\nfleet.n_buildings = 5\n")
        cfg = load_config(path)
        assert cfg.seed == 3 and cfg.fleet.n_buildings == 5

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_direct_construction_validates_too(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(horizon=-1.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(initial_t1_low=26.0, initial_t1_high=22.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(transient_hours=-1.0)
        # an infinite start temperature or a negative seed would otherwise
        # only fail inside the run, when the fleet's start is drawn
        for bad in (
            dict(initial_t1_high=math.inf), dict(initial_t1_low=-math.inf),
            dict(transient_hours=math.inf), dict(seed=-1),
            # a reference ramp that never ends holds every building where it started
            dict(ramp_hours=math.inf),
            # a step count too large for a float to hold
            dict(horizon=1e308, fleet=FleetConfig(sample_dt=1e-10)),
        ):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(**bad)

    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, f.name)
            for cls in (ScenarioConfig, FleetConfig, BuildingParams, DisturbanceParams)
            for f in fields(cls)
            if f.type in (float, "float")
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_every_float_setting_rejects_nan(self, cls, name):
        # NaN fails every comparison, so a range check alone lets it through
        with pytest.raises(ConfigurationError):
            cls(**{name: math.nan})
