"""Model-free HVAC fleet control that tracks a PV generation profile.

The package wires an intelligent-proportional control law with a real-time
drift estimator (control), a three-state RC building model (plant), a
band-splitting fleet coordinator (coordinator), synthetic or CSV scenario
inputs (scenario) and an array-based simulation/trace/metrics engine with a
CLI (simulate, cli).
"""

from .control import estimate_f, ip_control, reference
from .coordinator import (
    BuildingBounds,
    FleetConfig,
    PowerBand,
    clamp_to_bounds,
    per_building_bounds,
    power_band,
)
from .errors import (
    ConfigurationError,
    PlantDivergenceError,
    ProfileError,
    PvflockError,
)
from .plant import (
    BuildingParams,
    BuildingState,
    DisturbanceSample,
    build_matrices,
    check_sane,
    equilibrium,
    plant_derivative,
    plant_step,
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
    "BuildingBounds",
    "BuildingParams",
    "BuildingState",
    "ConfigurationError",
    "DisturbanceParams",
    "DisturbanceSample",
    "FleetConfig",
    "MetricsReport",
    "PlantDivergenceError",
    "PowerBand",
    "Profile",
    "ProfileError",
    "PvSourceConfig",
    "PvflockError",
    "ScenarioConfig",
    "SimulationTrace",
    "build_fleet",
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
    "per_building_bounds",
    "plant_derivative",
    "plant_step",
    "power_band",
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
