"""Path-normalized training for ReLU RNNs (an MLP is the RNN at T = 1).

An unrolled RNN is modelled by its RnnLayout, a map from weight matrices to
slices of one parameter vector.  The package computes the path-regularizer
and its per-parameter second-order coefficients (kappa) from those matrices
and uses them to precondition SGD and Adam so that training is invariant to
node-wise rescalings of the weights.  The explicit DAG with an edge ->
parameter map (SharedWeightNet) is not a second route but the reference:
the layout route is cross-checked against it and brute-force path
enumeration on small nets.
"""

from .compute import backprop, forward, rnn_backward, rnn_forward
from .graph import (
    GraphError,
    RnnLayout,
    RnnSpec,
    SharedWeightNet,
    build_rnn,
    edges_for_param,
    validate,
)
from .invariance import NodeScaling, apply_rescaling, is_feasible, random_rescaling
from .optim import (
    OptimizerState,
    TrainResult,
    adam_step,
    path_adam_step,
    path_sgd_step,
    sgd_step,
    train_loop,
)
from .pathnorm import (
    gamma_bruteforce,
    gamma_recursive,
    kappa1,
    kappa2,
    kappa2_bruteforce,
    kappa_fd,
    kappa_ratio,
    preconditioner,
)

__version__ = "0.1.0"

__all__ = [
    "GraphError",
    "NodeScaling",
    "OptimizerState",
    "RnnLayout",
    "RnnSpec",
    "SharedWeightNet",
    "TrainResult",
    "adam_step",
    "apply_rescaling",
    "backprop",
    "build_rnn",
    "edges_for_param",
    "forward",
    "gamma_bruteforce",
    "gamma_recursive",
    "is_feasible",
    "kappa1",
    "kappa2",
    "kappa2_bruteforce",
    "kappa_fd",
    "kappa_ratio",
    "path_adam_step",
    "path_sgd_step",
    "preconditioner",
    "random_rescaling",
    "rnn_backward",
    "rnn_forward",
    "sgd_step",
    "train_loop",
    "validate",
]
