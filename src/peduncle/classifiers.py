"""Per-point classifiers: a two-class kernel SVM and an HSV naive Bayes model.

The SVM is trained with sequential minimal optimization on the dual problem
(max-violating-pair working-set selection, seeded random fallback) and
standardizes its input features internally. The naive Bayes model fits
per-class Gaussians over (cos h, sin h, s, v); the trigonometric hue
encoding keeps red hues continuous across the 0/360 degree wrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._textio import open_text, read_rows, write_rows
from .errors import FormatError, InvalidInput

VARIANCE_FLOOR = 1e-6

# Elements of the (rows, m, d) difference block _kernel works on at once:
# 512 KiB of float64, small enough to stay in cache between the subtract
# and the reduction that reads it back.
_KERNEL_BLOCK = 1 << 16


@dataclass
class SvmParams:
    kernel: str = "rbf"          # "rbf" | "linear"
    c: float = 10.0
    gamma: float = 1.0 / 36.0
    tol: float = 1e-3
    max_passes: int = 100        # iteration budget = max_passes * n_samples
    seed: int = 0

    def __post_init__(self):
        if self.kernel not in ("rbf", "linear"):
            raise InvalidInput(f"kernel must be rbf or linear, not {self.kernel!r}")
        for name in ("c", "gamma", "tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidInput(f"{name} must be finite and positive, got {value!r}")
        if self.max_passes < 1:
            raise InvalidInput(f"max_passes must be at least 1, got {self.max_passes}")


@dataclass
class SvmModel:
    kernel: str
    gamma: float
    c: float
    bias: float
    dual_coefs: np.ndarray          # alpha_i * y_i, one per support vector
    support_vectors: np.ndarray     # standardized rows (n_sv, dim)
    feature_means: np.ndarray
    feature_scales: np.ndarray
    tol: float = 1e-3


def _kernel(kind: str, gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix between row sets a (n, d) and b (m, d).

    Each entry is computed with per-pair reductions (no batched matmul), so
    a row's values are bit-identical whether scored alone or in a batch,
    and whatever the block size. The rbf kernel processes rows of `a` in
    blocks of max(1, _KERNEL_BLOCK // (m * d)), so its (rows, m, d)
    difference block fits in cache; one buffer serves every block.
    """
    if kind not in ("linear", "rbf"):
        raise InvalidInput(f"unknown kernel {kind!r}")
    if kind == "linear":
        return np.einsum("ik,jk->ij", a, b)
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m))
    rows = max(1, _KERNEL_BLOCK // max(m * a.shape[1], 1))
    buf = np.empty((min(rows, n), m, a.shape[1]))
    for start in range(0, n, rows):
        ac = a[start : start + rows]
        d = buf[: len(ac)]
        np.subtract(ac[:, None, :], b[None, :, :], out=d)
        block = out[start : start + rows]
        np.einsum("ijk,ijk->ij", d, d, out=block)
        np.multiply(-gamma, block, out=block)
        np.exp(block, out=block)
    return out


def svm_train(features: np.ndarray, labels: np.ndarray, params: SvmParams | None = None) -> SvmModel:
    """Train a two-class SVM with SMO on the dual problem.

    labels must be +1 / -1 with both classes present. Features are
    standardized internally; the stored model satisfies the KKT conditions
    within params.tol on the training set (given enough iteration budget).
    """
    if params is None:
        params = SvmParams()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidInput("features/labels shape mismatch")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("non-finite feature value")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInput("labels must be +1/-1")
    if np.all(y > 0) or np.all(y < 0):
        raise InvalidInput("training needs both classes")

    means = x.mean(axis=0)
    stds = x.std(axis=0)
    scales = np.where(stds > 1e-12, stds, 1.0)
    xs = (x - means) / scales

    n = xs.shape[0]
    c = float(params.c)
    tol = float(params.tol)
    k = _kernel(params.kernel, params.gamma, xs, xs)

    alpha = np.zeros(n)
    grad = -np.ones(n)              # gradient of 1/2 a'Qa - sum(a)
    rng = np.random.default_rng(params.seed)
    eps_b = 1e-12 * max(c, 1.0)
    max_iter = max(1000, params.max_passes * n)

    def _working_sets():
        yg = -y * grad
        up = ((y > 0) & (alpha < c - eps_b)) | ((y < 0) & (alpha > eps_b))
        low = ((y > 0) & (alpha > eps_b)) | ((y < 0) & (alpha < c - eps_b))
        return yg, np.flatnonzero(up), np.flatnonzero(low)

    for _ in range(max_iter):
        yg, up_idx, low_idx = _working_sets()
        if up_idx.size == 0 or low_idx.size == 0:
            break
        i = up_idx[np.argmax(yg[up_idx])]
        j = low_idx[np.argmin(yg[low_idx])]
        if yg[i] - yg[j] <= tol:
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if eta <= 1e-12:
            # flat direction: fall back to a random second index that still
            # permits progress; skip the round if none does
            perm = rng.permutation(low_idx)
            eta = 0.0
            for cand in perm:
                e = k[i, i] + k[cand, cand] - 2.0 * k[i, cand]
                if e > 1e-12 and yg[i] - yg[cand] > tol:
                    j, eta = cand, e
                    break
            if eta <= 1e-12:
                break

        # two-variable analytic update preserving sum(alpha * y)
        yi, yj = y[i], y[j]
        delta = (yg[i] - yg[j]) / eta
        ai_old, aj_old = alpha[i], alpha[j]
        ai = ai_old + yi * delta
        aj = aj_old - yj * delta
        # clip to the box along the constraint line
        if yi == yj:
            total = ai_old + aj_old
            lo, hi = max(0.0, total - c), min(c, total)
            ai = min(max(ai, lo), hi)
            aj = total - ai
        else:
            diff = ai_old - aj_old
            lo, hi = max(0.0, diff), min(c, c + diff)
            ai = min(max(ai, lo), hi)
            aj = ai - diff
        dai, daj = ai - ai_old, aj - aj_old
        if abs(dai) < 1e-15 and abs(daj) < 1e-15:
            break
        alpha[i], alpha[j] = ai, aj
        # column i of Q = K * outer(y, y), exactly, with no n x n Q: y is +-1
        grad += y * (k[:, i] * (y[i] * dai) + k[:, j] * (y[j] * daj))

    yg, up_idx, low_idx = _working_sets()
    if up_idx.size and low_idx.size:
        bias = (np.max(yg[up_idx]) + np.min(yg[low_idx])) / 2.0
    else:
        # every alpha pinned at a bound: least-squares threshold over all points
        bias = float(np.mean(y - k @ (alpha * y)))
    sv = alpha > 1e-10
    return SvmModel(
        kernel=params.kernel,
        gamma=params.gamma,
        c=c,
        bias=float(bias),
        dual_coefs=(alpha * y)[sv],
        support_vectors=xs[sv],
        feature_means=means,
        feature_scales=scales,
        tol=tol,
    )


def svm_score_batch(model: SvmModel, feats: np.ndarray) -> np.ndarray:
    """Signed margins for (N, dim) feature rows, dim the model's.

    Raises InvalidInput for rows of another width or a non-finite value.
    """
    feats = np.asarray(feats, dtype=np.float64)
    dim = len(model.feature_means)
    if feats.ndim != 2 or feats.shape[1] != dim:
        raise InvalidInput(f"features must be (N, {dim}) for this model, got {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise InvalidInput("non-finite feature value")
    xs = (feats - model.feature_means) / model.feature_scales
    k = _kernel(model.kernel, model.gamma, xs, model.support_vectors)
    # per-row reduction keeps single and batched scoring bit-identical
    return np.einsum("ij,j->i", k, model.dual_coefs) + model.bias


def save_svm(path, model: SvmModel) -> None:
    """ASCII model file: header, means, scales, then `coef sv...` per support vector."""
    head = "\n".join(
        [
            f"svm v1 {model.kernel} {repr(float(model.gamma))} {repr(float(model.c))} "
            f"{repr(float(model.bias))} {len(model.dual_coefs)}",
            " ".join(repr(float(v)) for v in model.feature_means),
            " ".join(repr(float(v)) for v in model.feature_scales),
        ]
    )
    rows = np.column_stack([model.dual_coefs, model.support_vectors])
    write_rows(path, head, rows, np.empty((len(rows), 0), dtype=np.int64))


def load_svm(path) -> SvmModel:
    """Read the model file written by save_svm.

    Raises FormatError on a bad header or unknown kernel, a non-numeric or
    non-finite value, means and scales of different or zero length, a
    support-vector count that is negative or larger than the file can hold,
    a malformed support-vector line, data after the last one, or a gamma, C
    or feature scale that is not positive.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 7 or header[:2] != ["svm", "v1"] or header[2] not in ("linear", "rbf"):
            raise FormatError(f"{path}: not an svm v1 file")
        try:
            gamma, c, bias = (float(v) for v in header[3:6])
            n_sv = int(header[6])
            means = np.array([float(v) for v in fh.readline().split()])
            scales = np.array([float(v) for v in fh.readline().split()])
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric header, means or scales field") from exc
        if len(means) == 0 or len(scales) != len(means):
            raise FormatError(f"{path}: means and scales need the same, non-zero length")
        rows, _ = read_rows(fh, path, n_sv, len(means) + 1, 0, "support vector")
    if not np.isfinite(np.concatenate([[gamma, c, bias], means, scales, rows.ravel()])).all():
        raise FormatError(f"{path}: non-finite value")
    if min(gamma, c, scales.min()) <= 0:
        raise FormatError(f"{path}: gamma, C and the feature scales must be positive")
    return SvmModel(header[2], gamma, c, bias, rows[:, 0].copy(), rows[:, 1:].copy(), means, scales)


# ---------------------------------------------------------------------------
# HSV naive Bayes (pepper vs everything else)
# ---------------------------------------------------------------------------


@dataclass
class NaiveBayesHsv:
    """Gaussian class-conditionals over (cos h, sin h, s, v); row 0 = pepper."""

    means: np.ndarray        # (2, 4)
    variances: np.ndarray    # (2, 4), floored
    priors: np.ndarray       # (2,), sums to 1


def _nb_columns(hsv) -> tuple[np.ndarray, ...]:
    """The model's four features (cos h, sin h, s, v) of [h_deg, s, v] rows,
    one array each: cos h and sin h contiguous, s and v views of hsv."""
    hsv = np.atleast_2d(np.asarray(hsv, dtype=np.float64))
    h = np.deg2rad(hsv[:, 0])
    return np.cos(h), np.sin(h), hsv[:, 1], hsv[:, 2]


def hsv_nb_features(hsv: np.ndarray) -> np.ndarray:
    """(N, 3) [h_deg, s, v] -> (N, 4) [cos h, sin h, s, v]: _nb_columns stacked."""
    return np.column_stack(_nb_columns(hsv))


def nb_fit(pepper_hsv: np.ndarray, other_hsv: np.ndarray) -> NaiveBayesHsv:
    """Maximum-likelihood Gaussian fit per class with a variance floor."""
    blocks = [hsv_nb_features(pepper_hsv), hsv_nb_features(other_hsv)]
    for b in blocks:
        if len(b) < 2:
            raise InvalidInput("each class needs at least 2 samples")
    means = np.stack([b.mean(axis=0) for b in blocks])
    variances = np.stack([np.maximum(b.var(axis=0), VARIANCE_FLOOR) for b in blocks])
    counts = np.array([len(b) for b in blocks], dtype=np.float64)
    return NaiveBayesHsv(means, variances, counts / counts.sum())


def nb_posterior(model: NaiveBayesHsv, hsv: np.ndarray) -> np.ndarray:
    """P(pepper | hsv) for one [h_deg, s, v] triple or an (N, 3) batch.

    Works on the four feature arrays of _nb_columns. A class's
    log-likelihood adds the terms of features 0, 1, 2, 3 in that order,
    the order a sum over each row of them takes.
    """
    single = np.asarray(hsv).ndim == 1
    columns = _nb_columns(hsv)
    log_prior = np.log(model.priors)
    log_post = []
    for cls in range(2):
        log_norm = np.log(2.0 * np.pi * model.variances[cls])
        total = np.zeros(len(columns[0]))
        for j, col in enumerate(columns):
            term = col - model.means[cls, j]
            term *= term
            term /= model.variances[cls, j]
            term += log_norm[j]
            total += term
        total *= -0.5
        total += log_prior[cls]
        log_post.append(total)
    top = np.maximum(log_post[0], log_post[1])
    p0, p1 = (np.exp(lp - top) for lp in log_post)
    post = p0 / (p0 + p1)
    return float(post[0]) if single else post


def save_nb(path, model: NaiveBayesHsv) -> None:
    """ASCII model file: magic line then two class blocks (prior/means/variances)."""
    lines = ["nbhsv v1"]
    for cls in range(2):
        lines.append(repr(float(model.priors[cls])))
        lines.append(" ".join(repr(float(v)) for v in model.means[cls]))
        lines.append(" ".join(repr(float(v)) for v in model.variances[cls]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_nb(path) -> NaiveBayesHsv:
    """Read the model file written by save_nb.

    Raises FormatError on a bad magic line, a truncated file, a non-numeric
    or non-finite value, a prior line that is not one number or a means or
    variances line that is not 4, data after the second class block, a
    variance that is not positive, or a prior outside (0, 1].
    """
    with open_text(path) as fh:
        if fh.readline().strip() != "nbhsv v1":
            raise FormatError(f"{path}: not an nbhsv v1 file")
        lines = fh.readlines()
    if len(lines) < 6:
        raise FormatError(f"{path}: truncated nbhsv file")
    if "".join(lines[6:]).strip():
        raise FormatError(f"{path}: data after the last class block")
    try:
        rows = [[float(v) for v in line.split()] for line in lines[:6]]
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric field") from exc
    if [len(r) for r in rows] != [1, 4, 4] * 2:
        raise FormatError(f"{path}: a class block is a prior, 4 means and 4 variances")
    if not np.isfinite(np.concatenate(rows)).all():
        raise FormatError(f"{path}: non-finite value")
    means, variances, priors = np.array(rows[1::3]), np.array(rows[2::3]), np.array([r[0] for r in rows[::3]])
    if variances.min() <= 0 or priors.min() <= 0 or priors.max() > 1:
        raise FormatError(f"{path}: variances must be positive and priors in (0, 1]")
    return NaiveBayesHsv(means, variances, priors)
