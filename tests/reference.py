"""Per-unit scalar reference for compute.rnn_forward / rnn_backward.

One example at a time, one (layer, unit, time) coordinate at a time, in
plain Python: every weight is read through RnnLayout.param_index, so the
reference shares no code with the vectorized route it checks.  Each unit
sums its in{i} sources, then rec{i} from the previous step, then the bias.
"""


def forward(layout, p, x, activation="relu"):
    """Outputs y[t][o] for the input x[t][k], plus the states h[t][i][j]
    (h[t][0] is x[t]) and pre-activations pre[t][i][j] of hidden layer i."""
    spec, pi = layout.spec, layout.param_index
    p = [float(v) for v in p]
    dims, top = (spec.input_dim,) + spec.hidden_dims, spec.depth - 1
    y, h, pre = [], [], []
    for t in range(spec.length):
        hs, zs = [[float(v) for v in x[t]]], [None]
        for i in range(1, top + 1):
            zi = []
            for j in range(dims[i]):
                z = 0.0
                for k in range(dims[i - 1]):
                    z += p[pi(f"in{i}", j, k)] * hs[i - 1][k]
                if t:
                    for k in range(dims[i]):
                        z += p[pi(f"rec{i}", j, k)] * h[t - 1][i][k]
                if spec.bias:
                    z += p[pi(f"b{i}", j, 0)]
                zi.append(z)
            zs.append(zi)
            hs.append(zi if activation == "identity" else [z if z > 0.0 else 0.0 for z in zi])
        yt = []
        for o in range(spec.output_dim):
            z = 0.0
            for k in range(dims[top]):
                z += p[pi("out", o, k)] * hs[top][k]
            if spec.bias:
                z += p[pi("bout", o, 0)]
            yt.append(z)
        y.append(yt)
        h.append(hs)
        pre.append(zs)
    return y, h, pre


def backward(layout, p, x, dy, activation="relu"):
    """d(sum over t, o of dy[t][o] y[t][o]) / dp by reverse mode, step by
    step from the last, layers top-down.  The ReLU derivative is 0 at a
    pre-activation of exactly 0."""
    spec, pi = layout.spec, layout.param_index
    _, h, pre = forward(layout, p, x, activation)
    p = [float(v) for v in p]
    dims, top, T = (spec.input_dim,) + spec.hidden_dims, spec.depth - 1, spec.length
    dp = [0.0] * layout.m
    later = [[0.0] * n for n in dims]  # dpre of each layer at step t + 1
    for t in reversed(range(T)):
        for o in range(spec.output_dim):
            for k in range(dims[top]):
                dp[pi("out", o, k)] += dy[t][o] * h[t][top][k]
            if spec.bias:
                dp[pi("bout", o, 0)] += dy[t][o]
        above = None  # dpre of layer i + 1 at step t
        for i in range(top, 0, -1):
            di = []
            for j in range(dims[i]):
                d = 0.0
                if i == top:
                    for o in range(spec.output_dim):
                        d += dy[t][o] * p[pi("out", o, j)]
                else:
                    for q in range(dims[i + 1]):
                        d += above[q] * p[pi(f"in{i + 1}", q, j)]
                if t + 1 < T:
                    for q in range(dims[i]):
                        d += later[i][q] * p[pi(f"rec{i}", q, j)]
                di.append(d if activation == "identity" or pre[t][i][j] > 0.0 else 0.0)
            for j in range(dims[i]):
                for k in range(dims[i - 1]):
                    dp[pi(f"in{i}", j, k)] += di[j] * h[t][i - 1][k]
                if t:
                    for k in range(dims[i]):
                        dp[pi(f"rec{i}", j, k)] += di[j] * h[t - 1][i][k]
                if spec.bias:
                    dp[pi(f"b{i}", j, 0)] += di[j]
            later[i] = above = di
    return dp
