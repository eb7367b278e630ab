"""Path-normalized training for ReLU RNNs (an MLP is the RNN at T = 1).

An unrolled RNN is modelled by its RnnLayout, a map from weight matrices to
slices of one parameter vector.  The package computes the path-regularizer
and its per-parameter second-order coefficients (kappa) from those matrices
and uses them to precondition SGD and Adam so that training is invariant to
node-wise rescalings of the weights.  The oracles the matrix route is
cross-checked against on small nets, a gamma recursion, its finite
differences and brute-force path enumeration, walk the same layout one
(layer, unit, time) coordinate at a time.
"""

from .compute import rnn_backward, rnn_forward
from .graph import GraphError, RnnLayout, RnnSpec
from .invariance import NodeScaling, apply_rescaling, random_rescaling
from .optim import (
    OptimizerState,
    TrainResult,
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
    "TrainResult",
    "apply_rescaling",
    "gamma_bruteforce",
    "gamma_recursive",
    "kappa1",
    "kappa2",
    "kappa2_bruteforce",
    "kappa_fd",
    "kappa_ratio",
    "path_sgd_step",
    "preconditioner",
    "random_rescaling",
    "rnn_backward",
    "rnn_forward",
    "sgd_step",
    "train_loop",
]
