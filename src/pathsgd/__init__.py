"""Path-normalized training for ReLU RNNs (an MLP is the RNN at T = 1).

An unrolled RNN is modelled by its RnnLayout, a map from weight matrices to
slices of one parameter vector.  The package computes the path-regularizer
and its per-parameter second-order coefficients (kappa) from those matrices
and uses them to precondition SGD and Adam so that training is invariant to
node-wise rescalings of the weights.  The oracles the matrix route is
cross-checked against on small nets, a gamma recursion, its finite
differences and brute-force path enumeration, walk the same layout one
(layer, unit, time) coordinate at a time.

The modules are the interface (``from pathsgd import optim``); the package
root exports nothing.
"""
