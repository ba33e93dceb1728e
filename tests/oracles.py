"""Reference oracles shared by the test modules.

The brute-force oracles are written with plain Python floats and math.* so
they stay independent of the tensor engine they are used to check.
`gaussian_window` is the 2-D SSIM window, and `window_ssim` is SSIM with
that window summed tap by tap, the reference for the separable filter of
`metrics.ssim`. `window_blur` is the deblur corpus's Gaussian blur summed
the same way, the reference for `data._blur`.
`spatial_attention_matrix` is the spatial attention built from engine ops,
holding its N x N arrays: the composite reference for the blocked
`attention.spatial_cross_attention`.
`extended_spatial_attend` is the spatial attention in numpy's extended
precision (`np.longdouble`), an accuracy reference for the float64 op.
`one_graph_step` is the trainer's earlier batch objective, kept as the
reference for the streamed step that replaced it.
"""

import math

import numpy as np

from skdistill import tensor as T
from skdistill.losses import total_loss
from skdistill.metrics import gaussian_1d


def softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    z = sum(e)
    return [v / z for v in e]


def brute_force_channel(t, s, lam):
    """Channel interaction on row-lists: returns (output rows, attention rows)."""
    c, n = len(t), len(t[0])
    logits = [[sum(t[i][k] * s[j][k] for k in range(n)) / lam for j in range(c)]
              for i in range(c)]
    a = [softmax_row(row) for row in logits]
    out = [[sum(a[i][j] * s[j][k] for j in range(c)) for k in range(n)] for i in range(c)]
    return out, a


def brute_force_spatial(t, s, lam):
    """Spatial interaction with column-normalized softmax: (output, matrix)."""
    c, n = len(t), len(t[0])
    logits = [[sum(t[k][i] * s[k][j] for k in range(c)) / lam for j in range(n)]
              for i in range(n)]
    b = [[0.0] * n for _ in range(n)]
    for j in range(n):
        col = softmax_row([logits[i][j] for i in range(n)])
        for i in range(n):
            b[i][j] = col[i]
    out = [[sum(s[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(c)]
    return out, b


def spatial_attention_matrix(t, s):
    """(N, N) attention of FeatureMaps t, s over pixel positions, normalized
    over each column: softmax_cols(t^T s / lambda), lambda = sqrt(C)."""
    # scale the (C, N) operand rather than the (N, N) logits: same math,
    # one full pass over the big matrix saved in each direction
    scaled = T.mul(t.matrix(), 1.0 / math.sqrt(t.channels))
    logits = T.matmul(T.transpose(scaled), s.matrix())
    return T.softmax_cols(logits)


def extended_spatial_attend(t, s, scale):
    """s @ softmax_cols(scale * t^T s) for (C, N) arrays, in np.longdouble."""
    t, s = np.asarray(t, np.longdouble), np.asarray(s, np.longdouble)
    logits = (t * np.longdouble(scale)).T @ s
    p = np.exp(logits - logits.max(axis=0, keepdims=True))
    p /= p.sum(axis=0, keepdims=True)
    return s @ p


def brute_force_gk(x_rows, y_rows, sigma, per_element_mean):
    d2 = sum((a - b) ** 2 for xr, yr in zip(x_rows, y_rows) for a, b in zip(xr, yr))
    count = sum(len(r) for r in x_rows)
    if per_element_mean:
        d2 /= count
    return 1.0 - math.exp(-d2 / (2.0 * sigma * sigma))


def brute_force_ssim_window(a, b, weights, c1, c2):
    """SSIM of one window given flat pixel lists and matching weights."""
    mu_a = sum(w * x for w, x in zip(weights, a))
    mu_b = sum(w * x for w, x in zip(weights, b))
    var_a = sum(w * x * x for w, x in zip(weights, a)) - mu_a * mu_a
    var_b = sum(w * x * x for w, x in zip(weights, b)) - mu_b * mu_b
    cov = sum(w * x * y for w, x, y in zip(weights, a, b)) - mu_a * mu_b
    return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
        ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))


def gaussian_window(size=11, sigma=1.5):
    """Normalized size x size Gaussian weights: the outer product of the
    1-D ones. The defaults are the SSIM window."""
    one_d = gaussian_1d(size, sigma)
    return np.outer(one_d, one_d)


def window_blur(img, sigma):
    """Gaussian blur of a (C, H, W) image as a direct 2-D sum: the image
    edge-padded by r = max(ceil(3 sigma), 1), each output pixel the sum of
    its (2r+1)^2 neighbourhood against the 2-D window, tap by tap."""
    r = max(math.ceil(3.0 * sigma), 1)
    window = gaussian_window(2 * r + 1, sigma)
    _, h, w = img.shape
    padded = np.pad(img, ((0, 0), (r, r), (r, r)), mode="edge")
    out = np.zeros(img.shape)
    for di in range(2 * r + 1):
        for dj in range(2 * r + 1):
            out += window[di, dj] * padded[:, di:di + h, dj:dj + w]
    return out


def _windowed_means(x, window):
    """Valid-mode weighted means of the 2-D array x for every window position."""
    size = window.shape[0]
    h, w = x.shape
    out = np.zeros((h - size + 1, w - size + 1))
    for di in range(size):
        for dj in range(size):
            out += window[di, dj] * x[di:di + h - size + 1, dj:dj + w - size + 1]
    return out


def window_ssim(a, b, data_range=1.0):
    """Mean SSIM of (C, H, W) arrays over the 11x11 2-D Gaussian window,
    averaged over channels."""
    window = gaussian_window()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    scores = []
    for a_c, b_c in zip(a, b):
        mu_a = _windowed_means(a_c, window)
        mu_b = _windowed_means(b_c, window)
        var_a = _windowed_means(a_c * a_c, window) - mu_a * mu_a
        var_b = _windowed_means(b_c * b_c, window) - mu_b * mu_b
        cov = _windowed_means(a_c * b_c, window) - mu_a * mu_b
        ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
            ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
        scores.append(ssim_map.mean())
    return float(np.mean(scores))


def _mean_loss(parts):
    total = parts[0]
    for p in parts[1:]:
        total = T.add(total, p)
    return T.mul(total, 1.0 / len(parts))


def one_graph_step(objective, batch, params, w=None):
    """Loss, components and gradients of one batch built as one graph.

    Every sample's terms are built in forward order, each term is averaged
    over the batch, and one backward runs from the total: the mean
    reconstruction alone when `w` is None (plain training), `total_loss`
    of the three means otherwise (distillation).
    """
    sample_terms = objective(batch)
    terms = [sample_terms(sample) for sample in batch]
    means = []
    for column in zip(*terms):
        parts = [t for t in column if isinstance(t, T.Tensor)]
        means.append(_mean_loss(parts) if parts else 0.0)
    rec, gk, cl = means
    loss = rec if w is None else total_loss(rec, gk, cl, w)
    loss.backward(leaves=params)
    components = {name: T.as_tensor(m).item() for name, m in zip(("rec", "gk", "cl"), means)}
    return loss.item(), components, [p.grad.copy() for p in params]
