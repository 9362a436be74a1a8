"""Training deeply nested models via auxiliary coordinates and quadratic penalties."""

from .model import (
    Dataset,
    DimensionMismatchError,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    MacqpError,
    NestedNet,
    NonFiniteError,
    init_weights,
    nested_objective,
)
from .mac import PenaltySchedule, mac_train, postprocess
from .baselines import CgConfig, SgdConfig, alt_opt_rbf_train, cg_train, sgd_train
from .selection import SelectionConfig, aic_cost

__version__ = "0.1.0"
