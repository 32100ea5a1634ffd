"""L1-norm and L2-norm batch normalization: layers, oracles, experiments."""

__version__ = "0.1.0"

from .batchnorm import (
    GAUSSIAN_STD_OVER_MAD,
    BnCache,
    BnMode,
    BnParams,
    BnState,
    GradBundle,
    batch_deviation,
    bn_backward,
    bn_backward_l1_naive,
    bn_forward_infer,
    bn_forward_train,
    l1_batch_stats,
    l2_batch_stats,
    rows,
    update_running_stats,
)
from .costmodel import LayerShape, OpCosts, count_ops, model_report, parse_architecture
from .gradcheck import GradReport, check_layer, finite_diff
from .ratio import (
    RatioReport,
    channelwise_ratio_map,
    gaussian_ratio_trial,
    uniform_ratio_trial,
)
from .tensor import Rng, reduce_mean
from .trainer import (
    Mlp,
    MlpSpec,
    SgdConfig,
    SyntheticTask,
    TrainingRecord,
    forward_backward_step,
    parity_gap,
    run_experiment,
    sgd_update,
    train,
)
