import numpy as np
import pytest

from pathsgd import graph


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def single_unit_t2():
    """1-1-1 RNN unrolled two steps: p = (w_in, w_rec, w_out), m = 3."""
    return graph.RnnLayout(1, (1,), 1, 2)


@pytest.fixture
def single_unit_t3():
    return graph.RnnLayout(1, (1,), 1, 3)
