"""Training-set assembly and probabilistic patch/image classifiers.

The classifier contract is minimal: anything with
``predict_proba(rows) -> (n, 2)`` posteriors that sum to 1 can score
patches or image feature vectors.  In-repo it is satisfied by the random
forest (see `forest`) and by a gradient-descent logistic baseline working
on whitened patch rasters.  Externally computed patch probabilities can
bypass both through the probability-CSV interface of the CLI.
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
    """Full-batch gradient descent on the logistic loss.

    Weights start at zero (posterior 0.5 everywhere), so on a fixed batch
    the loss trace is deterministic and decreases monotonically for a
    sufficiently small rate.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=X.dtype)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    if epochs < 1 or rate <= 0:
        raise ValueError("epochs must be >= 1 and rate > 0")
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    losses = np.empty(epochs + 1, dtype=np.float64)
    for e in range(epochs):
        loss, gw, gb = logistic_loss_grad(w, b, X, y, l2)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss {loss} at epoch {e} "
                f"(rate={rate}, |w|={float(np.abs(w).max())})")
        losses[e] = loss
        w -= rate * gw
        b -= rate * gb
    losses[-1], _, _ = logistic_loss_grad(w, b, X, y, l2)
    return LogisticModel(weights=w, bias=b, losses=losses)
