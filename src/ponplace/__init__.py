"""Energy-aware VM and cloudlet placement for IoT networks over a PON."""

from .eepiv import run_eepiv
from .experiments import (SweepError, SweepResult, SweepSpec, run_sweep,
                          savings_summary, write_placements_csv,
                          write_savings_csv, write_sweep_csv)
from .milp import (InfeasibleError, ResourceBudgetError,
                   build_model, emit_lp, emit_mps, solve_exact,
                   validate_solution)
from .power import (EnergyParams, ModelError, ModelParams, PowerReport,
                    ProcessingParams, WorkloadTable, processing_power,
                    total_objective, traffic_power)
from .solution import EngineResult, FlowAssignment, PlacementSolution
from .topology import (ConfigError, LayerKind, Medium, NetworkInstance, Node,
                       RelayLayout, TopologyConfig, build_instance)

__version__ = "0.1.0"

__all__ = [
    "build_instance",
    "TopologyConfig", "NetworkInstance", "Node", "LayerKind",
    "Medium", "RelayLayout", "ConfigError",
    "EnergyParams", "ProcessingParams", "WorkloadTable", "ModelParams",
    "PowerReport", "ModelError",
    "traffic_power", "processing_power", "total_objective",
    "PlacementSolution", "FlowAssignment",
    "build_model", "emit_lp", "emit_mps", "solve_exact", "validate_solution",
    "ResourceBudgetError", "InfeasibleError",
    "run_eepiv", "EngineResult",
    "SweepSpec", "SweepResult", "SweepError", "run_sweep", "savings_summary",
    "write_sweep_csv", "write_placements_csv", "write_savings_csv",
    "__version__",
]
