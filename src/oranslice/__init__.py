"""Sliced downlink simulator: scenario generation, mapping, power
control and VNF placement for disaggregated RAN deployments."""

from .scenario import (GeneratorConfig, Scenario, ScenarioError,
                       SystemParams, generate_scenario, load_scenario,
                       save_scenario, validate)
from .radio import (BeamformerSet, ChannelSet, MappingEvaluator,
                    PowerAllocation, SliceMapping, build_beamformers,
                    build_channels, interference_upper_bound,
                    zf_beamformer)
from .queueing import UnstableQueueError
from .slicing import (FeasibilityReport, MappingResult, check_feasibility,
                      map_slices_to_services, rank_services, rank_slices)
from .power import (InfeasibleMappingError, JointResult, SolverOptions,
                    solve_joint, solve_power)
from .placement import (Placement, PlacementWeights, admitted_ratio,
                        cost_phi, cost_psi, place)

__version__ = "0.1.0"

__all__ = [
    "GeneratorConfig", "Scenario", "ScenarioError", "SystemParams",
    "generate_scenario", "load_scenario", "save_scenario", "validate",
    "BeamformerSet", "ChannelSet", "MappingEvaluator", "PowerAllocation",
    "SliceMapping", "build_beamformers",
    "build_channels", "interference_upper_bound",
    "zf_beamformer",
    "UnstableQueueError",
    "FeasibilityReport", "MappingResult", "check_feasibility",
    "map_slices_to_services", "rank_services", "rank_slices",
    "InfeasibleMappingError", "JointResult", "SolverOptions", "solve_joint",
    "solve_power",
    "Placement", "PlacementWeights", "admitted_ratio", "cost_phi",
    "cost_psi", "place",
    "__version__",
]
