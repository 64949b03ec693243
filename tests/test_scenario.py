"""Synthetic profiles, CSV profiles and the flat config format."""

from __future__ import annotations

import importlib.util
import math
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.lib._npyio_impl
import pytest

import pvflock.scenario
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
    read_trace,
    run_simulation,
    write_trace,
)
from pvflock.cli import main
from pvflock.scenario import CONFIG_KEYS, SECTIONS, read_csv_table, synth_disturbances, synth_pv
from pvflock.simulate import trace_header

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def _gen_profile(path):
    assert main(["gen-profile", "pv", str(path), "--horizon", "672"]) == 0


def _cloudy_pv(path):
    # the long_horizon_csv workload's PV input, four weeks of it
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(inputs)
    path.write_text(inputs.cloudy_pv_csv(1, 672.0, 12.0)[0])


def _trace(n):
    def write(path):
        trace = run_simulation(ScenarioConfig(fleet=FleetConfig(n_buildings=n), horizon=24.0))
        # cells the writer prints in exponent form, and a negative zero
        trace.t1[1, 0], trace.u[2, -1], trace.sum_p[3], trace.pv[0] = 1e-7, 2.5e-300, 1e16, -0.0
        write_trace(trace, path)
    return write


def assert_same_trace(a, b):
    for name in ("t", "pv", "sum_p", "band_lo", "band_hi", "infeasible",
                 "t1", "t2", "t3", "u", "p", "clamped"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


#: the files whose tables must equal np.loadtxt's over their non-blank lines after the header
CSV_FILES = {
    "gen_profile_672h": _gen_profile,
    "cloudy_pv_672h": _cloudy_pv,
    "trace_n1": _trace(1),
    "trace_n13": _trace(13),
    "trace_n130": _trace(130),
    "round_trip_crlf": lambda p: p.write_bytes(b"t_hours,value\r\n0,0\r\n0.5,6\r\n1,12\r\n"),
    "round_trip_blank_lines": lambda p: p.write_bytes(b"\nt_hours,value\n0,0\n\n0.5,6\n\n1,12\n\n"),
    "round_trip_spaces": lambda p: p.write_bytes(
        b"\r\n t_hours , value \r\n 0 ,0\r\n  \r\n0.5, 6 \r\n\t1,12\r\n\r\n"),
    "round_trip_no_final_newline": lambda p: p.write_bytes(b"t_hours,value\n0,0\n0.5,6\n1,12"),
    "header_only": lambda p: p.write_bytes(b"t_hours,value\n"),
    # lines of only spaces or tabs send a file past the C pass to the walk in blocks
    "whitespace_lines_over_blocks": lambda p: p.write_text("t_hours,value\n" + "".join(
        f"{i},{i % 7}.25\n" + (" \t\n" if i % 700 == 699 else "") for i in range(3000))),
    "header_then_whitespace_lines": lambda p: p.write_bytes(b"t_hours,value\n \n\t\n  \t \n"),
}


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

    def test_csv_header_keeps_spaces_inside_a_field(self, tmp_path):
        # a header field loses only the whitespace around it, as a row cell does
        path = tmp_path / "bad.csv"
        path.write_text("t_hours,val ue\n0,0\n1,1\n")
        with pytest.raises(ProfileError, match="t_hours,value"):
            load_profile_csv(path)
        header = trace_header(1).replace("T1_1", "T1 _1")
        path.write_text(header + "\n" + ",".join(["0"] * 12) + "\n")
        with pytest.raises(ProfileError, match="unrecognized trace header"):
            read_trace(path)

    def test_csv_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_hours,value\n0,0\nnot,a,row\n")
        with pytest.raises(ProfileError, match=":3:"):
            load_profile_csv(path)
        # a blank line counts: the bad row is the file's fifth line
        path.write_text("t_hours,value\n0,0\n\n1,1\n2,oops\n")
        with pytest.raises(ProfileError, match=":5:"):
            load_profile_csv(path)

    def test_csv_names_the_file_line_of_a_rejected_value(self, tmp_path):
        # blank and whitespace-only lines before the row count as file lines
        path = tmp_path / "pv.csv"
        path.write_text("t_hours,value\n\n0,1\n \t\n1,-0.5\n")
        with pytest.raises(ProfileError, match=r"pv\.csv:5: negative value = -0\.5$"):
            load_profile_csv(path, non_negative=True)
        path.write_text("\n t_hours,value\r\n0,1\r\n\r\n  \r\n1,2\r\n\t\r\n2,nan\r\n")
        with pytest.raises(ProfileError, match=r"pv\.csv:8: non-finite value = nan$"):
            load_profile_csv(path)
        # the first bad cell in file order, not the first bad column's
        path.write_text("t_hours,value\n0,1\n1,nan\ninf,2\n")
        with pytest.raises(ProfileError, match=r"pv\.csv:3: non-finite value = nan$"):
            load_profile_csv(path)

    def test_well_formed_csv_loads_in_one_pass(self, tmp_path, monkeypatch):
        # empty lines, CRLF endings and spaces around cells need no line-by-line filter
        def line_by_line(*args):
            raise AssertionError("the line-by-line parser ran")

        trace_path = tmp_path / "trace.csv"
        write_trace(run_simulation(ScenarioConfig(fleet=FleetConfig(n_buildings=3), horizon=2.0)),
                    trace_path)
        expected = read_trace(trace_path)
        monkeypatch.setattr(pvflock.scenario, "_nonblank", line_by_line)
        # nor does any of them go through np.loadtxt's line-by-line iteration of an open file
        monkeypatch.setattr(np, "loadtxt", line_by_line)
        path = tmp_path / "pv.csv"
        path.write_bytes(b"\r\nt_hours,value\r\n0, 1\r\n\r\n 0.5 ,2\r\n1,3")
        prof = load_profile_csv(path, non_negative=True)
        np.testing.assert_array_equal(prof.t, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(prof.values, [1.0, 2.0, 3.0])
        back = read_trace(trace_path)
        assert_same_trace(back, expected)

    def test_the_reader_is_loadtxts_own_c_entry(self):
        # a numpy that renames or moves its loader fails here, not in some later parse
        assert pvflock.scenario._load_from_filelike is numpy.lib._npyio_impl._load_from_filelike

    @pytest.mark.parametrize("make", sorted(CSV_FILES), ids=sorted(CSV_FILES))
    def test_the_table_is_loadtxts_bit_for_bit(self, tmp_path, make):
        path = tmp_path / "data.csv"
        CSV_FILES[make](path)
        lines = path.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip())
        fields = lines[start].split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on the header-only file
            expected = np.loadtxt([line for line in lines[start + 1:] if line.strip()],
                                  delimiter=",", comments=None, ndmin=2)
        got = read_csv_table(path, "table", lambda fields: None)
        assert got.dtype == expected.dtype and got.shape == expected.reshape(-1, len(fields)).shape
        assert got.tobytes() == expected.tobytes()

    def test_a_plain_profile_named_like_an_archive_loads(self, tmp_path):
        # handed the path, numpy's DataSource would try to gunzip it
        path = tmp_path / "pv.csv.gz"
        path.write_text("t_hours,value\n0,1\n1,2\n")
        np.testing.assert_array_equal(load_profile_csv(path).values, [1.0, 2.0])

    def test_a_byte_order_mark_starts_no_pv_header(self, tmp_path):
        path = tmp_path / "pv.csv"
        path.write_bytes(b"\xef\xbb\xbft_hours,value\r\n0,1\r\n1,2\r\n")
        np.testing.assert_array_equal(load_profile_csv(path, non_negative=True).values, [1.0, 2.0])
        # only the first line loses it: a non-ASCII byte in a cell fails as before
        path.write_bytes(b"\xef\xbb\xbft_hours,value\n0,1\n1,2\xc3\xa9\n")
        with pytest.raises(ProfileError, match=r"pv\.csv:3: non-numeric field: .*'2\xe9'"):
            load_profile_csv(path)
        path.write_bytes(b"t_hours,value\n0,1\n1,2\xe9\n")
        with pytest.raises(ProfileError, match="cannot read profile .*can't decode byte 0xe9"):
            load_profile_csv(path)

    def test_a_byte_order_mark_starts_no_trace_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(run_simulation(ScenarioConfig(fleet=FleetConfig(n_buildings=2), horizon=2.0)),
                    path)
        expected = read_trace(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = read_trace(path)
        assert_same_trace(back, expected)

    def test_a_bad_row_is_found_in_blocks(self, tmp_path, monkeypatch):
        # 100 000 rows, the bad one near the end: the search parses whole blocks of rows
        # up to the one that fails, and one by one only inside it
        rows, block = 100_000, 1024
        path = tmp_path / "pv.csv"
        lines = [f"{i},{i % 7}.25" for i in range(rows)]
        lines[rows - 10] = f"{rows - 10},oops"
        path.write_text("t_hours,value\n" + "\n".join(lines) + "\n")
        calls = 0
        loadtxt = np.loadtxt

        def recorder(*args, **kwargs):
            nonlocal calls
            calls += 1
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorder)
        with pytest.raises(ProfileError, match=rf"pv\.csv:{rows - 8}: non-numeric field: "
                                               r"could not convert string 'oops' to float64$"):
            load_profile_csv(path)
        assert calls <= rows / block + block + 2

    @pytest.mark.parametrize("bad", [0, 1, 1022, 1023, 1024, 1025, 2047, 2999,
                                     pytest.param(range(1024, 2048), id="block1024-2047")])
    def test_a_bad_row_at_any_place_in_a_block_is_named(self, tmp_path, bad):
        # blank lines count: row i sits on file line 2 i + 3 (header, blank, rows after blanks);
        # a block whose rows all hold 3 fields parses whole, but not to the header's width
        bad = bad if isinstance(bad, range) else range(bad, bad + 1)
        path = tmp_path / "pv.csv"
        for cell, error in (("x", "non-numeric field: could not convert string 'x' to float64"),
                            ("1,2", "expected 2 fields")):
            cells = [f"{i}" for i in range(3000)]
            for i in bad:
                cells[i] = cell
            path.write_text("t_hours,value\n" + "".join(f"\n{i},{c}\n" for i, c in enumerate(cells)))
            with pytest.raises(ProfileError,
                               match=rf"pv\.csv:{2 * bad[0] + 3}: {re.escape(error)}$"):
                load_profile_csv(path)

    def test_a_refused_file_is_read_once_more(self, tmp_path, monkeypatch):
        # after the C pass raises on the bad last row, one walk over the open file both
        # parses the rows and names the bad one: no second open, no second walk
        path = tmp_path / "pv.csv"
        path.write_text("t_hours,value\n" + "".join(f"{i},1\n" for i in range(3000)) + "3000,x\n")
        opens, walks = [], []

        def counted(calls, function):
            def call(*args, **kwargs):
                calls.append(args)
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(pvflock.scenario, "open", counted(opens, open), raising=False)
        monkeypatch.setattr(pvflock.scenario, "_nonblank",
                            counted(walks, pvflock.scenario._nonblank))
        with pytest.raises(ProfileError, match=r"pv\.csv:3002: non-numeric field: "):
            load_profile_csv(path)
        assert len(opens) == 1 and len(walks) == 1

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

    def test_every_key_sets_one_field_and_every_field_has_one_key(self):
        # each row's target is "" or a section and its attribute a field there;
        # scenario.substeps is the one key that sets nothing, and the section
        # fields of ScenarioConfig are built from their own keys
        classes = {"": ScenarioConfig, **SECTIONS}
        keyed = [(target, attr) for target, attr, _ in CONFIG_KEYS.values()
                 if (target, attr) != ("", "substeps")]
        settable = [(target, f.name) for target, cls in classes.items() for f in fields(cls)
                    if not (target == "" and f.name in SECTIONS)]
        assert sorted(keyed) == sorted(settable)

    def test_sections_fail_before_the_substeps_shim_and_the_scenario(self):
        with pytest.raises(ConfigurationError, match="n_buildings must be >= 1"):
            parse_config_text("scenario.substeps = 0\nfleet.n_buildings = 0")
        with pytest.raises(ConfigurationError, match="substeps must be >= 1"):
            parse_config_text("scenario.substeps = 0\nscenario.seed = -1")

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
        "line", ["controller.alpha = 0", "controller.alpha = -5", "controller.kp = 0",
                 "scenario.ramp_hours = -1"]
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

    @pytest.mark.parametrize("line", ["scenario.comfort_high_c = inf", "scenario.comfort_low_c = -inf"])
    def test_comfort_bounds_must_be_finite(self, line):
        # the rule `pvflock metrics` applies to --comfort-low and --comfort-high
        with pytest.raises(ConfigurationError, match="finite comfort_low"):
            parse_config_text(line)

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

    def test_history_must_fit_one_array(self):
        # an empty run's history is one (4, n) entry of 32 n bytes; building
        # the config allocates nothing
        widest = np.iinfo(np.intp).max // 32
        assert ScenarioConfig(horizon=0.0, fleet=FleetConfig(n_buildings=widest)).n_steps == 0
        for cfg in ({"horizon": 0.0, "fleet": FleetConfig(n_buildings=widest + 1)},
                    {"horizon": 1e18}, {"horizon": 1e300}):
            with pytest.raises(ConfigurationError, match="would not fit one array"):
                ScenarioConfig(**cfg)

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

    def test_a_byte_order_mark_starts_no_config_key(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_bytes(b"\xef\xbb\xbfscenario.seed = 3\r\nfleet.n_buildings = 5\r\n")
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
            # a building outside the sane range at t = 0 (the wall core starts 1 degC above T1)
            dict(initial_t1_high=70.0), dict(initial_t1_low=-25.0),
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

    @pytest.mark.parametrize("line", [
        "scenario.horizon_hours = -1", "scenario.horizon_hours = inf", "scenario.transient_hours = inf",
        "scenario.ramp_hours = nan", "scenario.seed = -1", "scenario.substeps = 0",
        "controller.alpha = 0", "controller.kp = inf", "controller.window_capacity = 4",
        "fleet.n_buildings = 0", "fleet.sample_dt_hours = inf", "building.c1 = 0", "building.k4 = inf",
        "disturbance.d1_mean_c = nan", "disturbance.d1_amp_c = inf", "disturbance.d2_peak_kw = -1",
        "disturbance.d3_day_kw = -1", "disturbance.d3_night_kw = inf", "pv.peak_kw = inf",
        "output.path =",
    ])
    def test_a_range_error_starts_with_the_key_typed(self, line):
        # a rule on one setting names it as the config file does; one that rejects
        # infinity says so
        key, _, value = (part.strip() for part in line.partition("="))
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be") as err:
            parse_config_text(line)
        assert "finite" in str(err.value) or value not in ("inf", "nan")
