"""Single-layer LSTM regressor with hand-derived backpropagation through time.

A window of T past values is run through a chain of LSTM cells sharing one
parameter set, one value per step; the prediction is a sigmoid of an affine
map of the final hidden state (data is min-max normalized to [0,1]). Every
pass is batched over windows. `LstmParams` holds the weights as named views
of one flat buffer, and `backward_batch` returns the gradient as the same
type over a buffer of its own.
"""

import numpy as np

from .linalg import FlatViews, ShapeError, glorot_uniform, sigmoid

WEIGHT_KEYS = ("W_f", "W_i", "W_c", "W_o", "b_f", "b_i", "b_c", "b_o", "W_y", "b_y")

GATE_ORDER = "fioc"  # row-block order of the packed gate matrix: sigmoid gates first

HIDDEN_UNITS = 50


class LstmParams(FlatViews):
    """LSTM weights, or their gradient: views of one flat float64 buffer.

    The buffer holds W_f, W_i, W_o, W_c (H, H+1), then b_f, b_i, b_o, b_c
    (H,), then W_y (1, H) and b_y (1,). The gate matrices are the row blocks
    of the packed gate matrix `W` (4H, H+1) in GATE_ORDER, and the gate
    biases form the packed vector `b` (4H,). The window length does not
    shape an LSTM, so `window_len` is accepted and ignored.
    """

    kind = "lstm"
    WEIGHT_KEYS = WEIGHT_KEYS

    def __init__(self, hidden: int, window_len: int = 0, flat: np.ndarray | None = None):
        super().__init__([(f"W_{gate}", (hidden, hidden + 1)) for gate in GATE_ORDER]
                         + [(f"b_{gate}", (hidden,)) for gate in GATE_ORDER]
                         + [("W_y", (1, hidden)), ("b_y", (1,))], flat)
        self.hidden = hidden
        n_w = 4 * hidden * (hidden + 1)
        self.W = self.flat[:n_w].reshape(4 * hidden, hidden + 1)
        self.b = self.flat[n_w:n_w + 4 * hidden]


def init_params(hidden: int, input_size: int = 1, seed: int = 0) -> LstmParams:
    """Glorot-uniform weights, drawn in the order W_f, W_i, W_c, W_o, W_y;
    zero biases except forget bias = 1. The LSTM reads one value per step,
    so `input_size` must be 1."""
    if hidden < 1:
        raise ValueError("hidden size must be >= 1")
    if input_size != 1:
        raise ValueError(f"input size must be 1, got {input_size}")
    p = glorot_uniform(LstmParams(hidden), ("W_f", "W_i", "W_c", "W_o", "W_y"), seed)
    p.b_f[...] = 1.0
    return p


def _gate_weights(p: LstmParams) -> np.ndarray:
    """The packed gate matrix transposed, with the packed bias as its last
    row: a C-contiguous (H+2, 4H) array. One GEMM of a step input
    [a_prev, x, 1] with it gives all four gate pre-activations, bias included.
    """
    wt = np.empty((p.W.shape[1] + 1, p.W.shape[0]))
    wt[:-1] = p.W.T
    wt[-1] = p.b
    return wt


def _step(z, c_prev, wt, gates, c, tanh_c, a):
    """One fused cell step for a batch of step inputs z = [a_prev, x, 1].

    Writes the activated gates (B, 4H) in GATE_ORDER, the new cell state, its
    tanh and the new hidden state into the given buffers.
    """
    h = c.shape[1]
    np.matmul(z, wt, out=gates)
    gates[:, :3 * h] = sigmoid(gates[:, :3 * h])
    np.tanh(gates[:, 3 * h:], out=gates[:, 3 * h:])
    np.multiply(gates[:, :h], c_prev, out=c)
    c += gates[:, h:2 * h] * gates[:, 3 * h:]
    np.tanh(c, out=tanh_c)
    np.multiply(gates[:, 2 * h:3 * h], tanh_c, out=a)


def forward_batch(windows: np.ndarray, p: LstmParams, cache: bool = True):
    """Run the cell chain over a batch of windows (B, T); zero initial state.

    Returns predictions (B,) and the caches needed by backward_batch: the
    step inputs z = [a_prev, x, 1] (T, B, H+2), the activated gates
    (T, B, 4H), and the cell states and their tanh (T, B, H). With
    cache=False every step reuses one set of (B, ·) buffers and the caches
    are None; the predictions are the same bit for bit, as every step runs
    the same GEMM on the same shapes.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] < 1:
        raise ShapeError(f"expected (batch, T>=1) windows, got shape {windows.shape}")
    n, t_len = windows.shape
    h = p.hidden
    steps = t_len if cache else 1
    z = np.empty((steps, n, h + 2))
    z[0, :, :h] = 0.0
    z[:, :, h + 1] = 1.0
    if cache:
        z[:, :, h] = windows.T
    gates = np.empty((steps, n, 4 * h))
    c = np.empty((steps, n, h))
    tanh_c = np.empty((steps, n, h))
    a = np.empty((n, h))
    wt = _gate_weights(p)
    c_prev = np.zeros((n, h))
    for t in range(t_len):
        k = t if cache else 0
        if not cache:
            z[0, :, h] = windows[:, t]
        a_next = z[t + 1 if cache else 0, :, :h] if t + 1 < t_len else a
        _step(z[k], c_prev, wt, gates[k], c[k], tanh_c[k], a_next)
        c_prev = c[k]
    score = a @ p.W_y.T + p.b_y  # (B, 1)
    y = sigmoid(score).ravel()
    if not cache:
        return y, None
    return y, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c, "a_final": a, "y": y}


def backward_batch(caches: dict, d_loss_d_yhat: np.ndarray, p: LstmParams) -> LstmParams:
    """Gradients of sum_b d_loss_d_yhat[b] * yhat[b] w.r.t. every weight/bias.

    Exact BPTT through all steps of the forward call that produced `caches`;
    gradients are summed over the batch. Each step fills one (B, 4H) block of
    gate pre-activation gradients and runs one GEMM back to the hidden state.
    The gate weights and biases get their gradient from one GEMM over the
    stacked (T*B, H+2) step inputs. Returns an LstmParams over a fresh buffer.
    """
    z, gates, c, tanh_c = caches["z"], caches["gates"], caches["c"], caches["tanh_c"]
    h = p.hidden
    if gates.shape[2] != 4 * h or z.shape[2] != h + 2:
        raise ShapeError("cache does not match parameter shapes")
    d_y = np.asarray(d_loss_d_yhat, dtype=np.float64)
    y = caches["y"]
    if d_y.shape != y.shape:
        raise ShapeError(f"upstream gradient shape {d_y.shape} != predictions {y.shape}")
    grads = LstmParams(h, flat=np.empty_like(p.flat))
    d_score = d_y * y * (1.0 - y)
    np.matmul(d_score[None, :], caches["a_final"], out=grads["W_y"])
    grads["b_y"][0] = d_score.sum()

    # Every factor of the gate gradients that does not depend on the
    # recurrence, for all steps at once: the activation derivative (s(1-s)
    # for f, i, o; 1-u^2 for the candidate u) times what the gate multiplies
    # (c_prev, u, tanh(c), i), and d a_t / d c_t = o * (1 - tanh(c_t)^2).
    t_len, n, _ = gates.shape
    sig, cand = gates[:, :, :3 * h], gates[:, :, 3 * h:]
    d_gates = np.empty_like(gates)
    np.subtract(1.0, sig, out=d_gates[:, :, :3 * h])
    d_gates[:, :, :3 * h] *= sig
    np.multiply(cand, cand, out=d_gates[:, :, 3 * h:])
    np.subtract(1.0, d_gates[:, :, 3 * h:], out=d_gates[:, :, 3 * h:])
    d_gates[0, :, :h] = 0.0  # zero initial cell state
    d_gates[1:, :, :h] *= c[:-1]
    d_gates[:, :, h:2 * h] *= cand
    d_gates[:, :, 2 * h:3 * h] *= tanh_c
    d_gates[:, :, 3 * h:] *= gates[:, :, h:2 * h]
    da_dc = np.multiply(tanh_c, tanh_c)
    np.subtract(1.0, da_dc, out=da_dc)
    da_dc *= gates[:, :, 2 * h:3 * h]

    w_h = np.ascontiguousarray(p.W[:, :h])
    d_a = d_score[:, None] * p.W_y  # (B, H)
    d_c = np.zeros_like(d_a)
    tmp = np.empty_like(d_a)
    for t in range(t_len - 1, -1, -1):
        np.multiply(d_a, da_dc[t], out=tmp)
        d_c += tmp
        dg = d_gates[t]
        dg[:, 2 * h:3 * h] *= d_a
        dg3 = dg.reshape(n, 4, h)
        dg3[:, :2] *= d_c[:, None, :]
        dg3[:, 3] *= d_c
        if t:
            np.matmul(dg, w_h, out=d_a)
            d_c *= gates[t, :, :h]
    gwt = z.reshape(-1, h + 2).T @ d_gates.reshape(-1, 4 * h)  # (H+2, 4H)
    grads.W[...] = gwt[:-1].T
    grads.b[...] = gwt[-1]
    return grads
