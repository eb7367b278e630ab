"""Path-normalized training for ReLU RNNs (Neyshabur et al.,
arXiv:1605.07154).  The modules are the interface (``from pathsgd import
optim``); the package root exports nothing.
"""
