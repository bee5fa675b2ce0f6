"""Single-layer LSTM regressor with hand-derived backpropagation through time.

A window of T past values is run through a chain of LSTM cells sharing one
parameter set, one value per step; the prediction is a sigmoid of an affine
map of the final hidden state (data is min-max normalized to [0,1]). Every
pass is batched over windows. `LstmParams` holds the weights as named views
of one flat buffer, and `backward_batch` returns the gradient as a new 1-D
array in that buffer's layout.
"""

import numpy as np

from .linalg import FlatViews, glorot_uniform, sigmoid, sigmoid_from_tanh

WEIGHT_KEYS = ("W_f", "W_i", "W_c", "W_o", "b_f", "b_i", "b_c", "b_o", "W_y", "b_y")

GATE_ORDER = "fioc"  # row-block order of the packed gate block `Wb`: sigmoid gates first

HIDDEN_UNITS = 50


class LstmParams(FlatViews):
    """LSTM weights: views of one flat float64 buffer.

    The buffer holds `Wb` (4H, H+2), then W_y (1, H) and b_y (1,). Row block
    g of `Wb` is [W_<gate> (H, H+1) | b_<gate> (H,)] for gate GATE_ORDER[g],
    and those eight strided views are attributes too.
    """

    def __init__(self, hidden: int):
        super().__init__([("Wb", (4 * hidden, hidden + 2)), ("W_y", (1, hidden)), ("b_y", (1,))])
        self.hidden = hidden
        for gate, rows in zip(GATE_ORDER, self.Wb.reshape(4, hidden, hidden + 2)):
            setattr(self, f"W_{gate}", rows[:, :-1])
            setattr(self, f"b_{gate}", rows[:, -1])


def init_params(hidden: int, input_size: int = 1, seed: int = 0) -> LstmParams:
    """Glorot-uniform weights, drawn in the order W_f, W_i, W_c, W_o, W_y;
    zero biases except forget bias = 1. The LSTM reads one value per step,
    so `input_size` must be 1."""
    if input_size != 1:
        raise ValueError(f"input size must be 1, got {input_size}")
    p = glorot_uniform(LstmParams(hidden), ("W_f", "W_i", "W_c", "W_o", "W_y"), seed)
    p.b_f[...] = 1.0
    return p


def forward_batch(windows: np.ndarray, p: LstmParams):
    """Run the cell chain over a batch of windows (B, T); zero initial state.

    Every step array is feature-major, one column per window, so each gate
    is a contiguous (H, B) block. Step t is one GEMM of `p.Wb`, copied with
    its f, i, o rows halved (exactly) to give the x/2 of 0.5 + 0.5*tanh(x/2),
    by the step input z_t = [a_prev; x_t; 1] (H+2, B); one tanh over the
    (4H, B) gate block; and `sigmoid_from_tanh` in place on the f, i, o rows.
    The new hidden state is written straight into the first H rows of z_{t+1}.

    Returns predictions (B,) and the caches needed by backward_batch: the
    step inputs z (T+1, H+2, B), the last holding only the final hidden
    state `a_final` (H, B); the activated gates (T, 4H, B) in GATE_ORDER;
    the cell states (T+1, H, B), entry t the one step t reads, so entry 0
    is the zero initial state; and tanh of the new cell states (T, H, B).
    """
    n, t_len = windows.shape
    h = p.hidden
    z = np.empty((t_len + 1, h + 2, n))
    z[0, :h] = 0.0
    z[:, h + 1] = 1.0
    z[:t_len, h] = windows.T
    c = np.empty((t_len + 1, h, n))
    c[0] = 0.0
    gates, tanh_c = np.empty((t_len, 4 * h, n)), np.empty((t_len, h, n))
    i_u = np.empty((h, n))
    wg = p.Wb.copy()
    wg[:3 * h] *= 0.5
    for t in range(t_len):
        g = gates[t]
        np.matmul(wg, z[t], out=g)
        np.tanh(g, out=g)
        sigmoid_from_tanh(g[:3 * h])
        np.multiply(g[:h], c[t], out=c[t + 1])
        np.multiply(g[h:2 * h], g[3 * h:], out=i_u)
        c[t + 1] += i_u
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(g[2 * h:3 * h], tanh_c[t], out=z[t + 1, :h])
    a_final = z[-1, :h]
    y = sigmoid(p.W_y @ a_final + p.b_y[:, None])[0]
    return y, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c, "a_final": a_final, "y": y}


def backward_batch(caches: dict, d_loss_d_yhat: np.ndarray, p: LstmParams) -> np.ndarray:
    """Gradients of sum_b d_loss_d_yhat[b] * yhat[b] w.r.t. every weight/bias.

    Exact BPTT through all steps of the forward call that produced `caches`;
    gradients are summed over the batch. Each step fills one contiguous
    (4H, B) block of gate pre-activation gradients from its whole cached
    blocks, runs one GEMM, W_h^T (H, 4H) by that block, back to the hidden
    state, and adds the block's product with the step inputs (B, H+2) to
    the gradient of `p.Wb`. Returns a new 1-D float64 array in `p.flat`'s layout.
    """
    z, gates, c, tanh_c = caches["z"], caches["gates"], caches["c"], caches["tanh_c"]
    h = p.hidden
    t_len, _, n = gates.shape
    y = caches["y"]
    d_score = d_loss_d_yhat * y * (1.0 - y)

    da_dc = np.multiply(tanh_c, tanh_c)  # d a_t / d c_t = o * (1 - tanh(c_t)^2)
    np.subtract(1.0, da_dc, out=da_dc)
    da_dc *= gates[:, 2 * h:3 * h]

    w_ht = np.ascontiguousarray(p.Wb[:, :h].T)  # (H, 4H)
    z_rows = np.ascontiguousarray(z[:t_len].transpose(0, 2, 1))  # (T, B, H+2) GEMM operands
    d_a = np.multiply(p.W_y.T, d_score)  # (H, B)
    d_c = np.zeros_like(d_a)
    tmp = np.empty_like(d_a)
    dg = np.empty((4 * h, n))
    gw = np.zeros((4 * h, h + 2))
    part = np.empty_like(gw)
    for t in range(t_len - 1, -1, -1):
        np.multiply(d_a, da_dc[t], out=tmp)
        d_c += tmp
        # the activation derivative (s(1-s) for f, i, o; 1-u^2 for the
        # candidate u), times what the gate multiplies (c_prev, u, tanh(c),
        # i), times the state gradient it feeds (d_a for o, else d_c)
        g = gates[t]
        sig, cand = g[:3 * h], g[3 * h:]
        np.subtract(1.0, sig, out=dg[:3 * h])
        dg[:3 * h] *= sig
        np.multiply(cand, cand, out=dg[3 * h:])
        np.subtract(1.0, dg[3 * h:], out=dg[3 * h:])
        dg[:h] *= c[t]
        dg[h:2 * h] *= cand
        dg[2 * h:3 * h] *= tanh_c[t]
        dg[3 * h:] *= g[h:2 * h]
        dg[2 * h:3 * h] *= d_a
        d_fi = dg[:2 * h].reshape(2, h, n)
        d_fi *= d_c
        dg[3 * h:] *= d_c
        np.matmul(dg, z_rows[t], out=part)
        gw += part
        if t:
            np.matmul(w_ht, dg, out=d_a)
            d_c *= g[:h]
    return np.concatenate((gw.ravel(), caches["a_final"] @ d_score, [d_score.sum()]))
