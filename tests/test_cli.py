"""End-to-end checks of the command line front end (via main(), no subprocess)."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from pvflock import ScenarioConfig, compute_metrics, load_profile_csv, read_trace
from pvflock.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: sha256 of the trace `pvflock run configs/<name>.cfg` writes at the config's seed
PINNED_TRACE_SHA256 = {
    "default": "5b66141927d6949428515957a82a1cb077b961c19aaf42c9805b867442106278",
    "fleet14": "95b4812ed62433a786fb80ce9dd0b397f0f59749311309d91d419e2ed1a4544b",
    "regulation_only": "341b938dfa7685c7ff7c7d1d6820e2f3ac1f9704eebcb2151427d581d8deeb3c",
}
#: sha256 of the trace of configs/default.cfg with these lines added, at seed
#: 1: settings no shipped config reaches
PINNED_VARIANT_TRACE_SHA256 = {
    "controller.window_capacity = 5": "e7e30f3065eeab619c986227144048800af9e53e521c05d2c4fe64f66a98c7fc",
    "controller.window_capacity = 7": "0364080a4087f3183da79c6b4943ee28b01d18686c943733221da68e44c2b407",
    "scenario.ramp_hours = 3": "9def74782130aa8854c80a00018b55184a53c738d9b6f70d3b36f277910d5290",
    "fleet.n_buildings = 1": "7fad904cf02f2cee64313ec6ab09838682e864e70e2facac301bbf748d7dff1d",
    "fleet.n_buildings = 1\ncontroller.window_capacity = 9":
        "725ec54b0ffb63fbf024a7a9b08b459df4af3891438d8ef45226f5d49152492d",
}
#: sha256 of `pvflock gen-profile pv <out> --horizon 672`, and of the trace of
#: configs/default.cfg over those 672 h with PV read from it
PINNED_PV_672_SHA256 = "ec4a812ffcd336049ffb681c6fb49bf91b0cef75917a4ab56696791eb92ac99d"
PINNED_CSV_PV_672_TRACE_SHA256 = "51e05a780ea7e0a3af20d4707d3bed9bea30296dc65a2dd9845924a9a873f466"
#: sha256 of `pvflock gen-profile pv <out>` with default flags
PINNED_PV_PROFILE_SHA256 = "64f672b0ba6cbf5601d029107750c2b927e7f194360e33da082c506fb8c8b990"
#: sha256 of the trace of configs/default.cfg at seed 1 with PV read from that profile
PINNED_CSV_PV_TRACE_SHA256 = "c70c3bed5c21777a9f10bdb30f97142c05b09e3dcf8e238c1ee01b0efbc6030e"

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

    @pytest.mark.parametrize("band", [(23.5, 26.0), (20.0, 22.5)])
    def test_any_comfort_band_is_accepted(self, band, small_trace, capsys):
        # the scenario's setpoint plays no part: a band that leaves the
        # default 23 degC setpoint outside is still a band to count against
        low, high = band
        argv = ["metrics", str(small_trace), "--comfort-low", str(low),
                "--comfort-high", str(high), "--transient-hours", "0.5"]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        cfg = ScenarioConfig(setpoint=(low + high) / 2, comfort_low=low, comfort_high=high,
                             transient_hours=0.5)
        report = compute_metrics(read_trace(small_trace), cfg)
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

    def test_bad_horizon_is_an_error(self, tmp_path, capsys):
        assert main(["gen-profile", "pv", str(tmp_path / "x.csv"), "--horizon", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
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


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit):
        main([])
