"""Training-set assembly and probabilistic patch/image classifiers.

The classifier contract is minimal: anything with
``predict_proba(rows) -> (n, 2)`` posteriors that sum to 1 can score
patches or image feature vectors.  In-repo it is satisfied by the random
forest (see `forest`) and by a gradient-descent logistic baseline working
on whitened patch rasters.  Externally computed patch probabilities can
bypass both through the probability-CSV interface of the CLI.

`train_logistic_folds` trains every fold of one row matrix in one
masked descent, with a column of coefficients per fold and no fold's
rows copied: in sample space, over the matrix's Gram matrix, when it
has fewer rows than columns (a small patch cohort, or the whole-image
baseline's few thousand 224 x 224 rasters), else over the rows
themselves.  `train_logistic` is its one-fold case.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CARCINOGENIC, DatasetManifest, ImageRecord
from .util import rng_from


def record_label(record: ImageRecord) -> int:
    return 1 if record.label == CARCINOGENIC else 0


def augment_rotations(manifest: DatasetManifest, k: int = 2,
                      seed: int = 0) -> DatasetManifest:
    """Add k randomly rotated copies of every original record.

    Angles are uniform over [0, 360) from a per-record stream, so the
    result does not depend on record order.  Copies carry their source
    frame and angle; the original records are returned untouched.
    """
    if k < 0:
        raise ValueError(f"augmentation count must be >= 0, got {k}")
    if any(r.is_augmented for r in manifest.records):
        raise ValueError("augmentation input must contain only originals")
    out: list[ImageRecord] = []
    for rec in manifest.records:
        out.append(rec)
        rng = rng_from(seed, "rotation", rec.patient, rec.sequence, rec.frame)
        angles = rng.uniform(0.0, 360.0, size=k)
        for angle in angles:
            out.append(dataclasses.replace(
                rec, augmented_from=rec.frame, rotation_deg=float(angle)))
    return DatasetManifest(records=out, root_path=manifest.root_path)


def balance_classes(labels: np.ndarray, augmented: np.ndarray,
                    seed: int = 0) -> np.ndarray:
    """Equalize class counts by removing rows, never fabricating any.

    `labels` and `augmented` (is the row a rotated copy?) are row-aligned.
    Randomly chosen augmented rows of the majority class go first; only
    if those run out are original rows removed (with a warning), since
    originals carry information the augmentation merely recycles.
    Returns the kept row indices in ascending order.
    """
    labels = np.asarray(labels)
    augmented = np.asarray(augmented, dtype=bool)
    if len(labels) != len(augmented):
        raise ValueError("labels and augmented flags must align")
    n1 = int((labels == 1).sum())
    n0 = int((labels == 0).sum())
    if n0 == 0 or n1 == 0:
        raise ValueError("balancing needs both classes present")
    if n0 == n1:
        return np.arange(len(labels))
    majority = 0 if n0 > n1 else 1
    excess = abs(n0 - n1)
    rng = np.random.Generator(np.random.PCG64(seed))

    is_majority = labels == majority
    aug_idx = np.flatnonzero(is_majority & augmented)
    orig_idx = np.flatnonzero(is_majority & ~augmented)
    keep = np.ones(len(labels), dtype=bool)
    take_aug = min(excess, len(aug_idx))
    if take_aug:
        keep[aug_idx[rng.permutation(len(aug_idx))[:take_aug]]] = False
    short = excess - take_aug
    if short > 0:
        warnings.warn(
            f"balancing exhausted augmented majority rows; removing "
            f"{short} original rows", stacklevel=2)
        keep[orig_idx[rng.permutation(len(orig_idx))[:short]]] = False
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Logistic baseline
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(weights: np.ndarray, bias: float, X: np.ndarray,
                       y: np.ndarray, l2: float = 0.0):
    """Mean cross-entropy loss and its analytic gradient."""
    n = len(X)
    z = X @ np.asarray(weights, dtype=X.dtype) + bias
    # log(1 + e^z) - y*z, evaluated stably
    loss = float(np.logaddexp(0.0, z).sum() - (y * z).sum())
    err = (_sigmoid(z) - y).astype(X.dtype)
    loss = loss / n + 0.5 * l2 * float(np.dot(weights, weights))
    grad_w = ((err @ X).astype(np.float64) / n
              + l2 * np.asarray(weights, dtype=np.float64))
    return loss, grad_w, float(err.sum()) / n


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    losses: np.ndarray

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        X = np.asarray(rows)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.weights):
            raise ValueError(
                f"row has {X.shape[1]} features, model expects "
                f"{len(self.weights)}")
        z = X @ self.weights.astype(X.dtype, copy=False) + self.bias
        p1 = _sigmoid(np.asarray(z, dtype=np.float64))
        return np.stack([1.0 - p1, p1], axis=1)


def train_logistic(X: np.ndarray, y: np.ndarray, epochs: int = 60,
                   rate: float = 0.5, l2: float = 0.0) -> LogisticModel:
    """Full-batch gradient descent on the logistic loss of every row of
    X: the one-fold case of `train_logistic_folds`.

    Weights start at zero (posterior 0.5 everywhere), so on a fixed batch
    the loss trace is deterministic and decreases monotonically for a
    sufficiently small rate.
    """
    return train_logistic_folds(X, y, [np.arange(len(X))], epochs, rate,
                                l2)[0]


def sample_space(shape: tuple[int, int]) -> bool:
    """Whether `train_logistic_folds` trains on a row matrix of `shape`
    in sample space: it has fewer rows than columns."""
    return shape[0] < shape[1]


def logistic_working_bytes(shape: tuple[int, int], folds: int,
                           dtype: np.dtype) -> int:
    """An upper bound on what `train_logistic_folds` allocates for
    `folds` folds of a row matrix of `shape` and `dtype`: the Gram
    matrix in sample space, plus 8 n x F matrices of that dtype (the
    masks, each epoch's logits, losses and errors) and 4 float64 d x F
    matrices (the weights and their step); a test holds it above the
    tracemalloc peak in both spaces."""
    n, d = shape
    itemsize = np.dtype(dtype).itemsize
    gram = n * n * itemsize if sample_space(shape) else 0
    return gram + (8 * itemsize * n + 4 * 8 * d) * folds


def train_logistic_folds(X: np.ndarray, y: np.ndarray,
                         fold_rows: list[np.ndarray], epochs: int = 60,
                         rate: float = 0.5, l2: float = 0.0
                         ) -> list[LogisticModel]:
    """One logistic model per fold: fold f descends, full batch, from zero
    weights and bias on the mean logistic loss of the distinct rows
    `fold_rows[f]` of X, labelled by the same rows of `y`.

    Every fold descends at once over one matrix A, whose coefficients V
    hold one column per fold.  The mask S, 1/n_f on fold f's rows and 0
    elsewhere, confines each fold's loss and gradient to its rows, so no
    rows are copied.  Rows outside a fold still enter its products, so
    every row of A must be finite; a row that is not is refused before
    the descent, with the folds that hold it.  A finite row outside fold
    f may still overflow fold f's product A @ V; that entry is set to 0,
    so the row never reaches fold f's loss or step.  An epoch computes
    Z = A @ V + b, then E = (sigmoid(Z) - y) * S, and steps b by the
    column sums of E.

    In pixel space A = X and V holds the weights (d x F), stepped by
    A.T @ E + l2 V.  When X has fewer rows than columns (`sample_space`),
    A = G = X @ X.T: from w = 0, L2 descent keeps fold f's weights in
    the span of its rows, w_f = X.T @ alpha_f, so V is alpha (n x F),
    stepped by E + l2 V, and an epoch reads n^2 values instead of two
    passes over n x d.  The two spaces agree up to float reassociation.
    A and Z keep X's dtype; V, b and the losses are float64.  A diverging
    descent overflows; that shows up as a non-finite loss, raised here
    with its fold, rather than as numpy warnings."""
    X = np.asarray(X)
    y = np.asarray(y, dtype=X.dtype)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    if epochs < 1 or rate <= 0:
        raise ValueError("epochs must be >= 1 and rate > 0")
    gram = sample_space(X.shape)
    S = np.zeros((len(X), len(fold_rows)), dtype=X.dtype)
    for f, rows in enumerate(fold_rows):
        S[rows, f] = 1.0 / len(rows)
    outside = S == 0
    y = y[:, None]
    b = np.zeros(len(fold_rows))
    losses = np.empty((epochs + 1, len(fold_rows)))
    with np.errstate(over="ignore", invalid="ignore"):
        A = X @ X.T if gram else X
        # max and min propagate nan and inf without an n x d temporary
        bad = np.flatnonzero(~(np.isfinite(A.max(axis=1, initial=0))
                               & np.isfinite(A.min(axis=1, initial=0))))
        if len(bad):
            raise FloatingPointError(
                f"non-finite row {bad[0]} of {'X @ X.T' if gram else 'X'}, "
                f"held by folds {np.flatnonzero(~outside[bad[0]]).tolist()}")
        V = np.zeros((A.shape[1], len(fold_rows)))
        for e in range(epochs + 1):
            AV = A @ V.astype(X.dtype)
            # A row outside fold f may overflow fold f's products; zeroed,
            # it adds 0 (not 0 x inf) to fold f's loss and step.
            np.copyto(AV, 0, where=outside)
            Z = AV + b.astype(X.dtype)
            softplus = np.logaddexp(0.0, Z)
            # ||w_f||^2: V.V in pixel space, alpha.(G alpha) in sample space
            norms = (V * (AV if gram else V)).sum(axis=0)
            losses[e] = (((softplus - y * Z) * S).sum(
                axis=0, dtype=np.float64) + 0.5 * l2 * norms)
            bad = np.flatnonzero(~np.isfinite(losses[e]))
            if len(bad):
                f = int(bad[0])
                raise FloatingPointError(
                    f"non-finite loss {losses[e, f]} at epoch {e} in fold "
                    f"{f} (rate={rate}, largest |coefficient| "
                    f"{float(np.abs(V[:, f]).max())})")
            if e < epochs:
                # sigmoid(Z) = 1 - exp(-softplus(Z)), as accurate in float32
                # as `_sigmoid` and a fraction of its cost
                E = (1.0 - y - np.exp(-softplus)) * S
                V -= rate * ((E if gram else A.T @ E) + l2 * V)
                b -= rate * E.sum(axis=0, dtype=np.float64)
    W = (X.T @ V.astype(X.dtype)).astype(np.float64) if gram else V
    return [LogisticModel(weights=W[:, f].copy(), bias=float(b[f]),
                          losses=losses[:, f].copy())
            for f in range(len(fold_rows))]
