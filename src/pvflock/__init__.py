"""Model-free HVAC fleet control that tracks a PV generation profile.

The package wires an intelligent-proportional control law with a real-time
drift estimator (control), a three-state RC building model (plant), a
band-splitting fleet coordinator (coordinator), synthetic or CSV scenario
inputs (scenario) and an array-based simulation/trace/metrics engine with a
CLI (simulate, cli).

The names below are the run surface: the settings, which are checked when
they are built or loaded, and the calls that run, save and summarize a
simulation.  The per-run table builders stay in their modules; they trust
the settings they are handed.
"""

from .coordinator import FleetConfig
from .errors import (
    ConfigurationError,
    PlantDivergenceError,
    ProfileError,
    PvflockError,
)
from .plant import BuildingParams
from .scenario import (
    DisturbanceParams,
    Profile,
    PvSourceConfig,
    ScenarioConfig,
    load_config,
    load_profile_csv,
    parse_config_text,
)
from .simulate import (
    MetricsReport,
    SimulationTrace,
    compute_metrics,
    read_trace,
    run_simulation,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BuildingParams",
    "ConfigurationError",
    "DisturbanceParams",
    "FleetConfig",
    "MetricsReport",
    "PlantDivergenceError",
    "Profile",
    "ProfileError",
    "PvSourceConfig",
    "PvflockError",
    "ScenarioConfig",
    "SimulationTrace",
    "compute_metrics",
    "load_config",
    "load_profile_csv",
    "parse_config_text",
    "read_trace",
    "run_simulation",
    "write_trace",
]
