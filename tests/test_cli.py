"""End-to-end checks of the command line front end (via main(), no subprocess)."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

import pvflock.cli
from pvflock import FleetConfig, compute_metrics, load_profile_csv, read_trace
from pvflock.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: sha256 of the trace `pvflock run configs/<name>.cfg` writes at the config's seed
PINNED_TRACE_SHA256 = {
    "default": "940d3accdf18ea0b9efda9446e44a368e5749d98f62dde5fc5aba5b7463c2e3d",
    "fleet14": "6e937a9cd7c63ce76a473fb3e15382cc1b2f7909d618dcf6e0b151c6be4b2b29",
    "regulation_only": "7f3d9f87a33082ba2e4ebaa4f01ed2b0fd4aa742888e6dc4845284b6caefead6",
}
#: sha256 of the trace of configs/default.cfg with these lines added, at seed
#: 1: settings no shipped config reaches
PINNED_VARIANT_TRACE_SHA256 = {
    "controller.window_capacity = 5": "c7d5c6601e18903a68c05aee3ede1f1cb4cb19d6ca30992cb00f5e4484e98bc3",
    "controller.window_capacity = 7": "aec410f52e464f89f016a58d4a4a8b61b3a262b6fda7840d7ed2391e258fd8c1",
    "scenario.ramp_hours = 3": "e9b46a0303ef5530367dc8ad54f864b5111e68e60a049f6795058b319f0848a0",
    "fleet.n_buildings = 1": "7fad904cf02f2cee64313ec6ab09838682e864e70e2facac301bbf748d7dff1d",
    "fleet.n_buildings = 1\ncontroller.window_capacity = 9":
        "725ec54b0ffb63fbf024a7a9b08b459df4af3891438d8ef45226f5d49152492d",
}
#: sha256 of `pvflock gen-profile pv <out> --horizon 672`, and of the trace of
#: configs/default.cfg over those 672 h with PV read from it
PINNED_PV_672_SHA256 = "ec4a812ffcd336049ffb681c6fb49bf91b0cef75917a4ab56696791eb92ac99d"
PINNED_CSV_PV_672_TRACE_SHA256 = "120e815af6f4e721587fa7a27c2e932dc0bbe1e0bc4ae0c43dfdab4652ed02d1"
#: sha256 of `pvflock gen-profile pv <out>` with default flags
PINNED_PV_PROFILE_SHA256 = "64f672b0ba6cbf5601d029107750c2b927e7f194360e33da082c506fb8c8b990"
#: sha256 of the trace of configs/default.cfg at seed 1 with PV read from that profile
PINNED_CSV_PV_TRACE_SHA256 = "cbf494bfd38a5ebea451df5866ea3f759bd187926cad79b45b54209f08bd006a"

SMALL = """
scenario.horizon_hours = 2
scenario.transient_hours = 0.5
fleet.n_buildings = 3
"""
#: bytes that are not UTF-8 text: a UTF-16 byte-order mark and then every byte
NOT_UTF8 = b"\xff\xfe" + bytes(range(256))


def one_error_line(capsys) -> str:
    """The single `error:` line a failed command printed, and nothing else.

    main() runs in this process, so a command that returned at all raised
    no traceback.
    """
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    return err


@pytest.fixture
def small_trace(config_file, tmp_path, capsys):
    """A trace written by `pvflock run` on the SMALL config."""
    out = tmp_path / "small_trace.csv"
    assert main(["run", str(config_file(SMALL)), "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    return out


# ---------------------------------------------------------------------------
# run

class TestRun:
    def test_writes_trace_and_prints_metrics(self, config_file, tmp_path, capsys):
        cfg = config_file(SMALL)
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "comfort_violation_steps=" in stdout
        assert f"trace={out}" in stdout

    def test_quiet_suppresses_the_summary(self, config_file, tmp_path, capsys):
        cfg = config_file(SMALL)
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_zero_or_two_configs_is_an_error(self, config_file, capsys):
        # the config is one positional argument; argparse rejects anything
        # else with its usage line and exit status 2, before any file is read
        cfg = config_file(SMALL)
        for argv in (["run"], ["run", str(cfg), str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: pvflock")

    def test_output_path_defaults_from_the_config(self, config_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = config_file(SMALL + "output.path = fleet_trace.csv\n")
        assert main(["run", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "fleet_trace.csv").exists()

    def test_bad_config_reports_one_error_line(self, config_file, capsys):
        cfg = config_file("fleet.size = 13\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown config key" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "scenario.initial_t1_high_c = inf",
        "scenario.initial_t1_low_c = nan",
        "scenario.seed = -1",
        "scenario.transient_hours = nan",
        # a window the horizon cannot fill: the run would never estimate F,
        # and a huge one would not even fit in memory
        "scenario.horizon_hours = 72\ncontroller.window_capacity = 433",
        "controller.window_capacity = 1000000000001",
    ])
    def test_bad_setting_fails_before_the_run(self, line, config_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", str(config_file(SMALL + line + "\n")), "--out", str(out)]) == 1
        one_error_line(capsys)
        assert not out.exists()

    def test_non_utf8_config_or_pv_profile(self, config_file, tmp_path, capsys):
        junk = tmp_path / "junk"
        junk.write_bytes(NOT_UTF8)
        assert main(["run", str(junk)]) == 1
        assert "cannot read config" in one_error_line(capsys)
        cfg = config_file(SMALL + f"pv.source = csv\npv.csv_path = {junk}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "trace.csv")]) == 1
        assert "cannot read profile" in one_error_line(capsys)

    @pytest.mark.parametrize("name", ["default", "fleet14", "regulation_only"])
    def test_shipped_config_trace_bytes_are_pinned(self, name, tmp_path):
        # a change that moves any digit of a shipped run must update these
        # digests on purpose
        out = tmp_path / "trace.csv"
        assert main(["run", str(CONFIGS / f"{name}.cfg"), "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRACE_SHA256[name]

    def test_csv_pv_trace_bytes_are_pinned(self, config_file, tmp_path):
        # the default profile's bytes pin the time column too: a numpy scalar
        # repr there would read "np.float64(...)"
        profile = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(profile)]) == 0
        assert hashlib.sha256(profile.read_bytes()).hexdigest() == PINNED_PV_PROFILE_SHA256
        text = (CONFIGS / "default.cfg").read_text()
        cfg = config_file(text + f"\npv.source = csv\npv.csv_path = {profile}\n")
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "1", "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_PV_TRACE_SHA256

    @pytest.mark.parametrize("lines", list(PINNED_VARIANT_TRACE_SHA256))
    def test_variant_trace_bytes_are_pinned(self, lines, config_file, tmp_path):
        cfg = config_file((CONFIGS / "default.cfg").read_text() + f"\n{lines}\n")
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_VARIANT_TRACE_SHA256[lines]

    def test_substeps_leave_the_trace_unchanged(self, config_file, tmp_path):
        # the plant map is exact, so the RK4 substep count of an old config
        # is read and checked but moves no byte of the run
        traces = []
        for substeps in (1, 10):
            cfg = config_file((CONFIGS / "default.cfg").read_text()
                              + f"\nscenario.substeps = {substeps}\n")
            out = tmp_path / f"trace{substeps}.csv"
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        assert hashlib.sha256(traces[0]).hexdigest() == PINNED_TRACE_SHA256["default"]

    def test_four_week_csv_pv_trace_bytes_are_pinned(self, config_file, tmp_path):
        profile = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(profile), "--horizon", "672"]) == 0
        assert hashlib.sha256(profile.read_bytes()).hexdigest() == PINNED_PV_672_SHA256
        text = (CONFIGS / "default.cfg").read_text()
        cfg = config_file(
            text + f"\nscenario.horizon_hours = 672\npv.source = csv\npv.csv_path = {profile}\n"
        )
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_PV_672_TRACE_SHA256

    @pytest.mark.parametrize("line", ["controller.alpha = 1e-308", "controller.kp = 1e308"])
    def test_overflowing_ip_law_prints_one_error(self, line, config_file, tmp_path, capsys):
        # finite settings whose iP law overflows: the guard stops the run,
        # and numpy's overflow warning is not printed ahead of its error
        out = tmp_path / "trace.csv"
        assert main(["run", str(config_file(SMALL + line + "\n")), "--out", str(out)]) == 1
        assert one_error_line(capsys) == (
            "error: computed iP control is not finite:"
            " controller.kp or controller.alpha overflows it\n"
        )


class TestSeedResolution:
    def run_to(self, cfg, out, extra=()):
        assert main(["run", str(cfg), "--out", str(out), "--quiet", *extra]) == 0
        return out.read_bytes()

    def test_flag_seed_beats_the_config_seed(self, config_file, tmp_path):
        cfg = config_file(SMALL + "scenario.seed = 1\n")
        by_flag = self.run_to(cfg, tmp_path / "flag.csv", ["--seed", "9"])
        by_config_9 = self.run_to(config_file(SMALL + "scenario.seed = 9\n", name="nine.cfg"),
                                  tmp_path / "config9.csv")
        assert by_flag == by_config_9
        # without the flag, the config's seed is used
        by_config = self.run_to(cfg, tmp_path / "config.csv")
        assert by_config != by_flag

    def test_environment_does_not_set_the_seed(self, config_file, tmp_path, monkeypatch):
        # the flag and scenario.seed are the only two ways to set the seed
        cfg = config_file(SMALL)
        plain = self.run_to(cfg, tmp_path / "plain.csv")
        monkeypatch.setenv("PVFLOCK_SEED", "9")
        assert self.run_to(cfg, tmp_path / "env.csv") == plain

    def test_negative_seed_is_an_error(self, config_file, tmp_path, capsys):
        # a flag seed passes through the config's own check
        cfg, out = config_file(SMALL), tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
        assert "seed" in one_error_line(capsys)
        assert not out.exists()


# ---------------------------------------------------------------------------
# metrics

class TestMetricsCommand:
    def test_summarizes_an_existing_trace(self, config_file, tmp_path, capsys):
        cfg = config_file(SMALL)
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out), "--transient-hours", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "tracking_rms_kw=" in stdout
        assert "infeasible_steps=" in stdout

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    # the scenario's setpoint plays no part: a band that leaves the default
    # 23 degC setpoint outside is still a band to count against, and so is
    # one too narrow to hold any setpoint between its ends
    @pytest.mark.parametrize("band", [(23.5, 26.0), (20.0, 22.5), (23.0, 23.000000000000004)])
    def test_any_comfort_band_is_accepted(self, band, small_trace, capsys):
        low, high = band
        argv = ["metrics", str(small_trace), "--comfort-low", str(low),
                "--comfort-high", str(high), "--transient-hours", "0.5"]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        report = compute_metrics(read_trace(small_trace), epsilon=FleetConfig.epsilon,
                                 comfort_low=low, comfort_high=high, transient_hours=0.5)
        assert report.comfort_violation_steps > 0
        assert printed == report.lines()

    @pytest.mark.parametrize("flags", [
        ["--transient-hours", "nan"],
        ["--transient-hours", "-1"],
        ["--comfort-low", "24", "--comfort-high", "22"],
        ["--comfort-low", "nan"],
        ["--comfort-high", "inf"],
        ["--epsilon", "0"],
        ["--epsilon", "nan"],
    ])
    def test_bad_flags_are_one_error_line(self, flags, small_trace, capsys):
        assert main(["metrics", str(small_trace), *flags]) == 1
        one_error_line(capsys)

    @pytest.mark.parametrize("rows_before", [0, 2000])
    def test_non_utf8_trace_is_one_error_line(self, rows_before, tmp_path, capsys):
        # past the first few kilobytes the bytes are decoded inside the
        # numeric parse, not while the header is read
        header = ("t_hours,pv_kw,sum_p_kw,band_lo_kw,band_hi_kw,infeasible,"
                  "T1_1,T2_1,T3_1,u_1_kw,p_1_kw,clamped_1\n")
        row = ",".join(["0"] * 12) + "\n"
        path = tmp_path / "trace.csv"
        path.write_bytes((header + row * rows_before).encode() + NOT_UTF8 + b"\n")
        assert main(["metrics", str(path)]) == 1
        assert "cannot read trace" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# gen-profile

class TestGenProfile:
    @pytest.mark.parametrize("kind", ["pv"])  # every kind gen-profile writes
    def test_writes_a_loadable_profile(self, kind, tmp_path):
        out = tmp_path / f"{kind}.csv"
        assert main(["gen-profile", kind, str(out), "--horizon", "6"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_hours,value"
        assert len(lines) == 1 + 6 * 6 + 1  # one row per 10 min plus the endpoint
        assert len(load_profile_csv(out, non_negative=True).t) == 6 * 6 + 1

    def test_generated_pv_reproduces_the_synthetic_run(self, config_file, tmp_path):
        profile = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(profile), "--horizon", "4", "--peak", "12"]) == 0
        synth_cfg = config_file(SMALL, name="synth.cfg")
        csv_cfg = config_file(
            SMALL + f"pv.source = csv\npv.csv_path = {profile}\n", name="csv.cfg"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(synth_cfg), "--out", str(a), "--quiet"]) == 0
        assert main(["run", str(csv_cfg), "--out", str(b), "--quiet"]) == 0
        np.testing.assert_allclose(read_trace(b).pv, read_trace(a).pv, rtol=1e-5, atol=1e-5)

    def test_default_horizon_pv_profile_loads(self, tmp_path):
        # the time column keeps every digit, so the loaded grid is the run's
        out = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(out), "--horizon", "72"]) == 0
        profile = load_profile_csv(out, non_negative=True)
        np.testing.assert_array_equal(profile.t, np.arange(433) * (1.0 / 6.0))
        assert profile.value_at(13.0 + 48.0) == pytest.approx(12.0, rel=1e-5)

    def test_peak_scales_the_pv_kind(self, tmp_path):
        out = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(out), "--horizon", "24", "--peak", "7"]) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert max(values) == pytest.approx(7.0, rel=1e-5)

    @pytest.mark.parametrize("horizon", ["0.05", "0.08333333333333333"])
    def test_horizon_under_half_a_step_writes_a_usable_profile(self, horizon, config_file,
                                                               tmp_path):
        # it used to write the one row at t = 0, which the loader rejects
        out = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(out), "--horizon", horizon]) == 0
        np.testing.assert_array_equal(load_profile_csv(out, non_negative=True).t, [0.0, 1.0 / 6.0])
        # and a run loads it as its PV source
        cfg = config_file(f"scenario.horizon_hours = 0\npv.source = csv\npv.csv_path = {out}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "trace.csv"), "--quiet"]) == 0

    @pytest.mark.parametrize("horizon", ["10.58", "10.5", "0.1", "0.17", "23.9999", "24", "71.95"])
    def test_profile_ends_at_the_first_grid_time_past_the_horizon(self, horizon, tmp_path):
        # it used to round to the nearest step: --horizon 10.58 ended at 10.5
        out = tmp_path / "pv.csv"
        assert main(["gen-profile", "pv", str(out), "--horizon", horizon]) == 0
        t = load_profile_csv(out, non_negative=True).t
        assert t[-1] >= float(horizon) > t[-2]
        np.testing.assert_array_equal(t, np.arange(len(t)) * FleetConfig.sample_dt)

    def test_bad_horizon_is_an_error(self, tmp_path, capsys):
        assert main(["gen-profile", "pv", str(tmp_path / "x.csv"), "--horizon", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    # 1e308 h is finite, but its count of 10 min steps is not
    @pytest.mark.parametrize("horizon", ["nan", "inf", "1e308"])
    def test_non_finite_horizon_is_one_error_line(self, horizon, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen-profile", "pv", str(out), "--horizon", horizon]) == 1
        assert "--horizon" in one_error_line(capsys)
        assert not out.exists()

    def test_unknown_kind_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen-profile", "wind", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("kind", ["outdoor", "solar", "internal"])
    def test_disturbance_kinds_are_not_written(self, kind, tmp_path, capsys):
        # no config key reads a disturbance CSV, so gen-profile writes none
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen-profile", kind, str(out)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


#: what numpy's MemoryError says when a 1e13 h profile's time grid does not fit
NUMPY_NO_MEMORY = "Unable to allocate 437. TiB for an array with shape (60000000000001,)"


@pytest.mark.parametrize("command, call, message, printed", [
    ("run", "run_simulation", "", "out of memory"),
    ("gen-profile", "synth_pv", NUMPY_NO_MEMORY, NUMPY_NO_MEMORY),
], ids=["run", "gen-profile"])
def test_out_of_memory_is_one_error_line(command, call, message, printed, config_file, tmp_path,
                                         monkeypatch, capsys):
    # a horizon of 1e12 h or more asks numpy for tens of TiB; here the command's
    # call raises as numpy would, so the test allocates nothing large
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(pvflock.cli, call, out_of_memory)
    argv = {"run": ["run", str(config_file(SMALL)), "--out", str(tmp_path / "trace.csv")],
            "gen-profile": ["gen-profile", "pv", str(tmp_path / "pv.csv")]}[command]
    assert main(argv) == 1
    assert one_error_line(capsys) == f"error: {printed}\n"


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit):
        main([])
