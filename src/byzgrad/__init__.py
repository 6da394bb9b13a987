"""Byzantine fault-tolerant peer-to-peer gradient descent at desk scale.

Honest agents fuse received estimates by coordinate-wise trimmed
averaging, aggregate gradients by eliminating the largest norms, step, and
project back into a hypercube. The simulator runs that protocol
synchronously over a complete graph against pluggable adversaries, fully
deterministic from one seed, and measures whether the consensus and
validity guarantees actually hold.
"""

from .costs import (
    CostEnsemble,
    QuadraticCost,
    SpectralConstants,
    aggregate_minimizer,
    check_redundancy_sufficient,
    make_redundant_ensemble,
    spectral_constants,
)
from .errors import ConfigError, SimulationAbort
from .filters import Hypercube, Point, as_point, avg, cge_f, fuse_estimates, project_box, trim_f
from .metrics import RoundTrace, check_zeta, consensus_diameter, lyapunov_v, max_distance
from .protocol import (
    AdversaryStrategy,
    ObservedRound,
    RoundMessage,
    StepSchedule,
    adversary_emit,
    eta,
    honest_round,
)
from .scenario_io import LoadedScenario, build_template, dump_scenario, load_scenario_file, parse_scenario_text, scenario_digest
from .simulator import RunResult, Scenario, run

__version__ = "0.1.0"

__all__ = [
    "AdversaryStrategy",
    "ConfigError",
    "CostEnsemble",
    "Hypercube",
    "LoadedScenario",
    "ObservedRound",
    "Point",
    "QuadraticCost",
    "RoundMessage",
    "RoundTrace",
    "RunResult",
    "Scenario",
    "SimulationAbort",
    "SpectralConstants",
    "StepSchedule",
    "adversary_emit",
    "aggregate_minimizer",
    "as_point",
    "avg",
    "build_template",
    "cge_f",
    "check_redundancy_sufficient",
    "check_zeta",
    "consensus_diameter",
    "dump_scenario",
    "eta",
    "fuse_estimates",
    "honest_round",
    "load_scenario_file",
    "lyapunov_v",
    "make_redundant_ensemble",
    "max_distance",
    "parse_scenario_text",
    "project_box",
    "run",
    "scenario_digest",
    "spectral_constants",
    "trim_f",
]
