"""Online expert aggregation with group-conditional weights and fairness-aware sampling."""

from .domain import (
    Group,
    NEG,
    POS,
    CELL_ORDER,
    Example,
    QDistribution,
    RunConfig,
    WeightTable,
    recommended_eta,
    trial_seed_sequence,
)
from .engines import EngineState, Trajectory, run_trial
from .errors import FairmwError
from .experts import ErrorProfile, SyntheticEnsemble, FileEnsemble, train_builtin
from .estimators import RateEstimates, AlphaTracker
from .metrics import FairnessReport, BoundReport, gamma, compute_rates, regret, validate_bounds
from .qopt import ConstraintSystem, assemble_constraint_system, solve_q
from .ingest import DatasetSchema, load_dataset, load_preset, dataset_stats, split_shuffle, synth_stream

__version__ = "0.1.0"

__all__ = [
    "Group",
    "NEG",
    "POS",
    "CELL_ORDER",
    "Example",
    "QDistribution",
    "RunConfig",
    "WeightTable",
    "recommended_eta",
    "trial_seed_sequence",
    "EngineState",
    "Trajectory",
    "run_trial",
    "FairmwError",
    "ErrorProfile",
    "SyntheticEnsemble",
    "FileEnsemble",
    "train_builtin",
    "RateEstimates",
    "AlphaTracker",
    "FairnessReport",
    "BoundReport",
    "gamma",
    "compute_rates",
    "regret",
    "validate_bounds",
    "ConstraintSystem",
    "assemble_constraint_system",
    "solve_q",
    "DatasetSchema",
    "load_dataset",
    "load_preset",
    "dataset_stats",
    "split_shuffle",
    "synth_stream",
    "__version__",
]
