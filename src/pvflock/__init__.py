"""Model-free HVAC fleet control that tracks a PV generation profile.

The package wires an intelligent-proportional control law with a real-time
drift estimator (control), a three-state RC building model (plant), a
band-splitting fleet coordinator (coordinator), synthetic or CSV scenario
inputs (scenario) and an array-based simulation/trace/metrics engine with a
CLI (simulate, cli).
"""

from .control import estimate_f, ip_control, reference
from .coordinator import FleetConfig, building_bounds, clamp_to_bounds
from .errors import (
    ConfigurationError,
    PlantDivergenceError,
    ProfileError,
    PvflockError,
)
from .plant import (
    BuildingParams,
    build_matrices,
    check_sane,
    equilibrium,
    plant_derivative,
    rk4_fleet,
    rk4_fleet_reference,
)
from .scenario import (
    DisturbanceParams,
    Profile,
    PvSourceConfig,
    ScenarioConfig,
    load_config,
    load_profile_csv,
    parse_config_text,
    scenario_building_defaults,
    synth_disturbances,
    synth_pv,
)
from .simulate import (
    MetricsReport,
    SimulationTrace,
    build_fleet,
    compute_metrics,
    read_trace,
    run_simulation,
    trace_header,
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
    "build_fleet",
    "building_bounds",
    "build_matrices",
    "clamp_to_bounds",
    "check_sane",
    "compute_metrics",
    "equilibrium",
    "estimate_f",
    "ip_control",
    "load_config",
    "load_profile_csv",
    "parse_config_text",
    "plant_derivative",
    "read_trace",
    "reference",
    "rk4_fleet",
    "rk4_fleet_reference",
    "run_simulation",
    "scenario_building_defaults",
    "synth_disturbances",
    "synth_pv",
    "trace_header",
    "write_trace",
]
