import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from pathsgd import graph
from pathsgd.graph import RnnLayout

SRC = Path(graph.__file__).parent


def test_single_unit_t2_counts():
    layout = RnnLayout(1, (1,), 1, 2)
    assert layout.m == 3
    # one parameter per block, however many steps apply it
    assert [layout.param_index(name, 0, 0) for name in layout.slices] == [0, 1, 2]


def test_t1_has_no_recurrent_parameter():
    layout = RnnLayout(1, (1,), 1, 1)
    assert layout.m == 2 and "rec1" not in layout.slices


def test_param_count_depth3():
    assert RnnLayout(2, (3, 3), 2, 4).m == 6 + 9 + 9 + 9 + 6 == 39


def test_invalid_specs_rejected():
    for args in [(1, (), 1, 2), (0, (1,), 1, 2), (1, (1,), 0, 2), (1, (1,), 1, 0),
                 (1, (1, 0), 1, 2)]:
        with pytest.raises(graph.GraphError):
            RnnLayout(*args)


@pytest.mark.parametrize("field, args", [
    ("hidden_dims", (1, (2.5,), 1, 2)), ("hidden_dims", (1, (2, False), 1, 2)),
    ("length", (1, (2,), 1, 2.5)), ("input_dim", (True, (2,), 1, 2)),
    ("output_dim", (1, (2,), 1.0, 2))])
def test_non_integer_sizes_rejected(field, args):
    """A fractional or bool size is rejected, naming its field, not
    truncated or stored as given; NumPy integers are taken."""
    with pytest.raises(graph.GraphError, match=field):
        RnnLayout(*args)
    layout = RnnLayout(np.int64(2), (np.int64(3),), 1, np.int64(4))
    assert layout.hidden_dims == (3,) and type(layout.hidden_dims[0]) is int


def test_replace_recomputes_slices():
    """dataclasses.replace re-runs the shape check and the slice layout: at
    length 1 the rec{i} blocks go and m shrinks by their size."""
    layout = RnnLayout(2, (3, 2), 1, 4, bias=True)
    flat = dataclasses.replace(layout, length=1)
    assert [n for n in layout.slices if n.startswith("rec")] == ["rec1", "rec2"]
    assert not [n for n in flat.slices if n.startswith("rec")]
    assert (layout.m, flat.m) == (33, 33 - 9 - 4)
    # the blocks close up: out follows in1 (3x2), b1, in2 (2x3) and b2
    assert flat.param_index("out", 0, 0) == 6 + 3 + 6 + 2
    with pytest.raises(graph.GraphError):
        dataclasses.replace(layout, length=0)


def test_feedforward_one_to_one():
    """An MLP is the RNN at T = 1: no recurrent block."""
    assert RnnLayout(2, (3,), 1, 1).m == 9
    assert RnnLayout(1, (1,), 1, 1).m == 2
    layout = RnnLayout(4, (4, 4), 4, 1)
    assert layout.m == 48 and "rec1" not in layout.slices


@pytest.mark.parametrize("layout", [RnnLayout(2, (3, 2), 2, 3, bias=True),
                                    RnnLayout(2, (3,), 2, 1)], ids=["stacked_bias", "t1"])
def test_view_matches_param_index(rng, layout):
    """The matrix views of p and the per-entry reads the oracles make
    through param_index are one structure, and every index is read once."""
    p = rng.standard_normal(layout.m)
    indices = []
    for name, (_, (rows, cols)) in layout.slices.items():
        for j in range(rows):
            for k in range(cols):
                indices.append(layout.param_index(name, j, k))
                assert layout.view(p, name)[j, k] == p[indices[-1]]
    assert sorted(indices) == list(range(layout.m))


def test_layout_pack_view_roundtrip(rng):
    layout = RnnLayout(2, (3, 2), 1, 4, bias=True)
    p = rng.standard_normal(layout.m)
    blocks = [layout.view(p, name).reshape(-1) for name in layout.slices]
    assert np.array_equal(np.concatenate(blocks), p)
    assert layout.matrix(p, "nope") is None


def test_no_module_names_the_dag():
    """The unrolled DAG is gone; cli keeps build_rnn only as an alias line,
    because perfbench/probe.py wraps that name for its graph.build_rnn span."""
    names = re.compile(r"\b(SharedWeightNet|NodeRec|BIAS_LAYER|build_rnn)\b")
    found = {f"{path.name}: {line.strip()}" for path in SRC.glob("*.py")
             for line in path.read_text(encoding="utf-8").splitlines()
             if names.search(line) and not line.lstrip().startswith("#")}
    assert found == {"cli.py: build_rnn = RnnLayout"}
