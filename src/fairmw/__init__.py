"""Online expert aggregation with group-conditional weights and fairness-aware sampling."""

from .domain import (
    Group,
    NEG,
    POS,
    RunConfig,
    recommended_eta,
    trial_seed_sequence,
)
from .engines import Trajectory, run_trial
from .errors import FairmwError
from .experts import ErrorProfile, SyntheticEnsemble, MatrixEnsemble, train_builtin
from .metrics import BoundReport, gamma, validate_bounds
from .ingest import DatasetSchema, load_dataset, load_preset, dataset_stats, split_shuffle, synth_stream

__version__ = "0.1.0"

__all__ = [
    "Group",
    "NEG",
    "POS",
    "RunConfig",
    "recommended_eta",
    "trial_seed_sequence",
    "Trajectory",
    "run_trial",
    "FairmwError",
    "ErrorProfile",
    "SyntheticEnsemble",
    "MatrixEnsemble",
    "train_builtin",
    "BoundReport",
    "gamma",
    "validate_bounds",
    "DatasetSchema",
    "load_dataset",
    "load_preset",
    "dataset_stats",
    "split_shuffle",
    "synth_stream",
    "__version__",
]
