"""Fixtures of the pytest-benchmark suite: scenarios made by perfbench/inputs.py.

The suite lives outside the test paths, so a plain `pytest` does not run it:

    python -m pytest benchmarks --benchmark-json BENCH_<n>.json
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from inputs import Scenario, cloudy_pv_csv  # noqa: E402

from pvflock import ScenarioConfig, load_config  # noqa: E402

#: the shipped fleet's PV peak for 13 buildings, scaled with the fleet
PEAK_PER_13 = 12.0
SEED = 7


@pytest.fixture
def scenario_config(tmp_path):
    """Load the perfbench scenario of n buildings over horizon_h hours.

    A cloudy PV CSV drives it when csv is true, the synthetic day otherwise.
    """

    def make(n: int, horizon_h: float, csv: bool = False) -> ScenarioConfig:
        sc = Scenario(n_buildings=n, horizon_h=horizon_h, seed=SEED, pv_peak_kw=PEAK_PER_13 * n / 13)
        pv_csv = None
        if csv:
            pv_csv = tmp_path / "pv.csv"
            pv_csv.write_text(cloudy_pv_csv(SEED, horizon_h, sc.pv_peak_kw)[0])
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(sc.config_text(pv_csv))
        return load_config(cfg)

    return make


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Keep each benchmark's summary statistics, not its every timing."""
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
