"""Conv patch embedding, padding and the Bi-LSTM.

Each key patch (cut by `DetectionModel._prepare`, the one owner of the
patch geometry) is embedded by a small two-layer 1-D conv stack with mean
pooling, the samples' patch rows are scattered into one zero-padded block
through a prefix mask (`pad_rows`, which also pads the curves and the
patches), and a bidirectional LSTM produces per-patch context features of
width 2H.  The conv stack runs CONV_BLOCK = 64 patches at a time, so an
inference pass holds the conv activations of one block, not of the batch,
and every im2col buffer, forward or backward, holds one block's windows.
Forward passes can carry caches so the manual backward passes used for
training stay in one place; inference passes ask for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PATCH_LEN = 32
DEFAULT_CHANNELS = 16
DEFAULT_HIDDEN = 32
DEFAULT_CONV_KERNEL = 5


@dataclass
class ConvEncoderParams:
    """Two-layer 1-D conv stack with tanh nonlinearities and mean pooling."""

    w1: np.ndarray  # (c_mid, 1, kernel)
    b1: np.ndarray  # (c_mid,)
    w2: np.ndarray  # (channels, c_mid, kernel)
    b2: np.ndarray  # (channels,)

    @property
    def channels(self) -> int:
        return self.w2.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"conv_w1": self.w1, "conv_b1": self.b1, "conv_w2": self.w2, "conv_b2": self.b2}


def init_conv_params(
    rng: np.random.Generator,
    channels: int = DEFAULT_CHANNELS,
    kernel: int = DEFAULT_CONV_KERNEL,
) -> ConvEncoderParams:
    c_mid = channels
    scale1 = 1.0 / math.sqrt(kernel)
    scale2 = 1.0 / math.sqrt(kernel * c_mid)
    return ConvEncoderParams(
        w1=rng.normal(0.0, scale1, size=(c_mid, 1, kernel)),
        b1=np.zeros(c_mid),
        w2=rng.normal(0.0, scale2, size=(channels, c_mid, kernel)),
        b2=np.zeros(channels),
    )


@dataclass
class BiLstmParams:
    """Gate weights for both directions; gate order is (i, f, g, o)."""

    w_f: np.ndarray  # (4H, C) forward direction input weights
    u_f: np.ndarray  # (4H, H)
    b_f: np.ndarray  # (4H,)
    w_b: np.ndarray  # (4H, C) backward direction
    u_b: np.ndarray  # (4H, H)
    b_b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.u_f.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "lstm_fw_w": self.w_f,
            "lstm_fw_u": self.u_f,
            "lstm_fw_b": self.b_f,
            "lstm_bw_w": self.w_b,
            "lstm_bw_u": self.u_b,
            "lstm_bw_b": self.b_b,
        }


def init_bilstm_params(
    rng: np.random.Generator, channels: int = DEFAULT_CHANNELS, hidden: int = DEFAULT_HIDDEN
) -> BiLstmParams:
    def one_direction():
        scale_w = 1.0 / math.sqrt(channels)
        scale_u = 1.0 / math.sqrt(hidden)
        return (
            rng.normal(0.0, scale_w, size=(4 * hidden, channels)),
            rng.normal(0.0, scale_u, size=(4 * hidden, hidden)),
            np.zeros(4 * hidden),
        )

    w_f, u_f, b_f = one_direction()
    w_b, u_b, b_b = one_direction()
    return BiLstmParams(w_f, u_f, b_f, w_b, u_b, b_b)


# ---------------------------------------------------------------------------
# conv kernels (channels-last; im2col in blocks of patches, one GEMM per block)

CONV_BLOCK = 64  # patches per block; bounds the column buffer (1.3 MB at k = 32, C = 16) and the forward activations


def _im2col(x: np.ndarray, kernel: int, pad_left: int) -> np.ndarray:
    """Zero-padded windows of x (P, L, C) as rows (P*L, kernel*C), ordered (tap, c).

    P is at most CONV_BLOCK.  The rows are the head of a buffer of
    CONV_BLOCK * L rows, one size for every block of a layer, so each
    block's allocation can reuse the memory that the last one freed.
    """
    p, length, c = x.shape
    cols = np.empty((CONV_BLOCK * length, kernel * c))[: p * length]
    rows = cols.reshape(p, length, kernel, c)
    for tap in range(kernel):
        shift = tap - pad_left  # row l of this tap holds x[l + shift]
        lo, hi = min(max(-shift, 0), length), max(min(length - shift, length), 0)
        rows[:, :lo, tap] = 0.0
        rows[:, lo:hi, tap] = x[:, lo + shift : hi + shift]
        rows[:, hi:, tap] = 0.0
    return cols


def _correlate(x: np.ndarray, w: np.ndarray, pad_left: int, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded 1-D correlation of x (P, L, Cin) with w (Cout, Cin, K): (P, L, Cout),
    written into out when given."""
    p, length, _ = x.shape
    c_out, c_in, kernel = w.shape
    wmat = w.transpose(2, 1, 0).reshape(kernel * c_in, c_out)
    if out is None:
        out = np.empty((p, length, c_out))
    for lo in range(0, p, CONV_BLOCK):
        block = slice(lo, lo + CONV_BLOCK)
        np.matmul(_im2col(x[block], kernel, pad_left), wmat, out=out[block].reshape(-1, c_out))
    return out


def _conv1d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Same-length correlation, kernel // 2 zeros on the left, written into out
    when given. x: (P, L, Cin), w: (Cout, Cin, K)."""
    out = _correlate(x, w, w.shape[2] // 2, out)
    out += b
    return out


def _conv1d_same_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray, input_grad: bool = True):
    """Gradients (dx, dw, db) of _conv1d_same; dx is None unless input_grad.

    dx is itself a same-length correlation of dy, with the kernel's taps
    reversed, its channel axes swapped and the padding mirrored.
    """
    c_out, c_in, kernel = w.shape
    half = kernel // 2
    dw = np.zeros((kernel * c_in, c_out))
    for lo in range(0, x.shape[0], CONV_BLOCK):
        block = slice(lo, lo + CONV_BLOCK)
        dw += _im2col(x[block], kernel, half).T @ dy[block].reshape(-1, c_out)
    db = dy.sum(axis=(0, 1))
    dx = _correlate(dy, w.transpose(1, 0, 2)[:, :, ::-1], kernel - 1 - half) if input_grad else None
    return dx, dw.reshape(kernel, c_in, c_out).transpose(2, 1, 0), db


def conv_embed_forward(patches: np.ndarray, params: ConvEncoderParams, keep_cache: bool = False):
    """Embed patches (P, 1, k) into features (P, C), CONV_BLOCK patches at a time.

    Each block runs both layers, their tanh and the mean pool, so without
    keep_cache a pass holds conv activations for at most CONV_BLOCK patches
    and returns None for the cache.  With keep_cache each block is computed
    in place in whole-batch z1 and z2 arrays, the cache that
    conv_embed_backward reads and overwrites: it feeds one backward pass.
    """
    x = patches.transpose(0, 2, 1)
    p, length, _ = x.shape
    feats = np.empty((p, params.channels))
    z1s = z2s = None
    if keep_cache:
        z1s = np.empty((p, length, params.w1.shape[0]))
        z2s = np.empty((p, length, params.channels))
    for lo in range(0, p, CONV_BLOCK):
        block = slice(lo, lo + CONV_BLOCK)
        z1 = _conv1d_same(x[block], params.w1, params.b1, None if z1s is None else z1s[block])
        np.tanh(z1, out=z1)
        z2 = _conv1d_same(z1, params.w2, params.b2, None if z2s is None else z2s[block])
        np.tanh(z2, out=z2)
        feats[block] = z2.mean(axis=1)
    return feats, ((x, z1s, z2s) if keep_cache else None)


def _tanh_slope(z: np.ndarray) -> np.ndarray:
    """Overwrite z, a tanh output, with 1 - z * z, the slope of tanh where it
    takes the value z, and return it; no new array is made."""
    np.multiply(z, z, out=z)
    return np.subtract(1.0, z, out=z)


def conv_embed_backward(dfeats: np.ndarray, cache, params: ConvEncoderParams):
    """Gradients of the conv parameters from dfeats (P, C), the gradient of
    conv_embed_forward's features.

    The cache is consumed: z2 is overwritten with the gradient at the
    second layer's input to tanh, and z1, once the second layer's weight
    gradient has read it, with its own tanh slope.  So the pass adds one
    whole-batch array, dz1, to the two cached ones.
    """
    x, z1, z2 = cache
    length = x.shape[1]
    da2 = _tanh_slope(z2)
    da2 *= dfeats[:, None, :] / length
    dz1, dw2, db2 = _conv1d_same_backward(da2, z1, params.w2)
    dz1 *= _tanh_slope(z1)
    _, dw1, db1 = _conv1d_same_backward(dz1, x, params.w1, input_grad=False)
    return {"conv_w1": dw1, "conv_b1": db1, "conv_w2": dw2, "conv_b2": db2}


# ---------------------------------------------------------------------------
# padding


def pad_rows(rows: np.ndarray, lengths: np.ndarray, width: int | None = None):
    """Scatter packed rows (sum(lengths), ...) into a zero (N, width, ...) block.

    width defaults to max(lengths); a wider one adds padded slots, and a
    narrower one raises ValueError.  Row i of the block holds sample i's
    lengths[i] rows, in order, then zeros.  Returns (block, mask): mask is
    the (N, width) boolean prefix mask of valid slots, so block[mask] packs
    the block back into rows, and a gradient with respect to the block
    packs the same way.
    """
    mask = np.arange(int(lengths.max()) if width is None else width) < lengths[:, None]
    block = np.zeros(mask.shape + rows.shape[1:])
    block[mask] = rows
    return block, mask


# ---------------------------------------------------------------------------
# LSTM kernels (batched over samples, loop over time)


def _lstm_forward_padded(x: np.ndarray, lengths: np.ndarray, w, u, b, keep_cache: bool):
    """Unidirectional LSTM over padded input (B, S, C); invalid steps stay zero.

    The per-step backward caches are recorded only if keep_cache; otherwise
    the second return value is None.
    """
    bsz, steps, _ = x.shape
    hdim = u.shape[1]
    h = np.zeros((bsz, hdim))
    c = np.zeros((bsz, hdim))
    outputs = np.zeros((bsz, steps, hdim))
    caches = [] if keep_cache else None
    for t in range(steps):
        valid = (t < lengths).astype(float)[:, None]
        pre = x[:, t] @ w.T + h @ u.T + b
        gates = _sigmoid(pre)  # i, f and o; the g columns are then replaced by tanh
        gates[:, 2 * hdim : 3 * hdim] = np.tanh(pre[:, 2 * hdim : 3 * hdim])
        i, f, g, o = np.split(gates, 4, axis=1)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        if keep_cache:
            caches.append((x[:, t], h, c, i, f, g, o, c_new, tc, valid))
        h = valid * h_new
        c = valid * c_new
        outputs[:, t] = h
    return outputs, caches


def _lstm_backward_padded(doutputs: np.ndarray, caches, w, u):
    """Backward pass of _lstm_forward_padded. Returns (dx, dw, du, db)."""
    bsz, steps, hdim = doutputs.shape
    dx = np.zeros((bsz, steps, w.shape[1]))
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * hdim)
    dh_next = np.zeros((bsz, hdim))
    dc_next = np.zeros((bsz, hdim))
    for t in range(steps - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, c_new, tc, valid = caches[t]
        dh = (doutputs[:, t] + dh_next) * valid
        dc = dc_next * valid + dh * o * (1.0 - tc * tc)
        do = dh * tc
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dpre = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dw += dpre.T @ x_t
        du += dpre.T @ h_prev
        db += dpre.sum(axis=0)
        dx[:, t] = dpre @ w
        dh_next = dpre @ u
        dc_next = dc * f
    return dx, dw, du, db


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _reverse_padded(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A new array with each sample's valid prefix reversed along the time
    axis and its padding zero."""
    out = np.zeros_like(x)
    for i, length in enumerate(lengths):
        s = int(length)
        out[i, :s] = x[i, :s][::-1]
    return out


def bilstm_forward_padded(x: np.ndarray, lengths: np.ndarray, params: BiLstmParams, keep_cache: bool = False):
    """Bidirectional pass over padded (B, S, C) input; output (B, S, 2H) + cache.

    Only a keep_cache pass can be fed to bilstm_backward_padded.
    """
    out_f, cache_f = _lstm_forward_padded(x, lengths, params.w_f, params.u_f, params.b_f, keep_cache)
    x_rev = _reverse_padded(x, lengths)
    out_b_rev, cache_b = _lstm_forward_padded(x_rev, lengths, params.w_b, params.u_b, params.b_b, keep_cache)
    out_b = _reverse_padded(out_b_rev, lengths)
    return np.concatenate([out_f, out_b], axis=2), (cache_f, cache_b, lengths)


def bilstm_backward_padded(dout: np.ndarray, cache, params: BiLstmParams):
    """Backward of bilstm_forward_padded. Returns (dx, grads dict)."""
    cache_f, cache_b, lengths = cache
    hdim = params.hidden
    dout_f = dout[:, :, :hdim]
    dout_b = dout[:, :, hdim:]
    dx_f, dw_f, du_f, db_f = _lstm_backward_padded(dout_f, cache_f, params.w_f, params.u_f)
    dout_b_rev = _reverse_padded(dout_b, lengths)
    dx_b_rev, dw_b, du_b, db_b = _lstm_backward_padded(
        dout_b_rev, cache_b, params.w_b, params.u_b
    )
    dx = dx_f + _reverse_padded(dx_b_rev, lengths)
    grads = {
        "lstm_fw_w": dw_f,
        "lstm_fw_u": du_f,
        "lstm_fw_b": db_f,
        "lstm_bw_w": dw_b,
        "lstm_bw_u": du_b,
        "lstm_bw_b": db_b,
    }
    return dx, grads
