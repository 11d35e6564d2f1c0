"""Empirical falsification tooling for the noise-free matrix mechanism.

Two demonstrations:

* almost-sure separation: for any fixed V != V', a fresh Wishart projection
  M V never coincides with M V' (the coincidence event requires every random
  column of Z to be orthogonal to the row space of V - V', a measure-zero
  event), so the noise-free matrix mechanism admits a perfect distinguisher;
* a desk-scale membership inference attack: shadow models trained with and
  without an adversarial canary record are scored by the canary loss, and the
  score separation is summarized by ROC-AUC and best balanced accuracy.

Equality in the separation trial is tested at a relative tolerance rather
than exact float equality so the check cannot pass vacuously through
representation effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .randmat import Seed, wishart_factor
from . import trainer as trainer_mod

_SEPARATION_RTOL = 1e-9
_SEPARATION_BATCH = 512


@dataclass(frozen=True)
class SeparationResult:
    n_trials: int
    n_equal: int
    max_residual: float


def separation_trial(
    V: np.ndarray,
    Vprime: np.ndarray,
    r: int,
    n_trials: int,
    seed: Seed,
) -> SeparationResult:
    """Count Wishart draws for which M V and M V' coincide (expected: none).

    Each trial draws a fresh d x r factor of randmat's convention; chunk j of
    up to 512 trials draws its factors from seed.child(j). A trial counts as
    equal when ||M dV||_F <= 1e-9 ||dV||_F ||M||_F for dV = V - V'; the
    tolerance is relative in both dV and M, so rescaling either cannot change
    the outcome.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    Vprime = np.atleast_2d(np.asarray(Vprime, dtype=float))
    if V.shape != Vprime.shape:
        raise DomainError(f"V and V' must share a shape, got {V.shape} vs {Vprime.shape}")
    if not (np.isfinite(V).all() and np.isfinite(Vprime).all()):
        raise DomainError("V and V' must be finite")
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    dV = V - Vprime
    dv_norm = float(np.linalg.norm(dV))
    if dv_norm == 0.0:
        raise DegenerateInputError("separation_trial: V == V'")
    d = V.shape[0]
    n_equal = 0
    max_residual = 0.0
    done = 0
    chunk_idx = 0
    while done < n_trials:
        b = min(_SEPARATION_BATCH, n_trials - done)
        Zs = wishart_factor(seed.child(chunk_idx).generator(), b, d, r)
        # M dV = Z (Z^T dV) without materializing the d x d Gram matrices
        ZtdV = np.einsum("bdr,dn->brn", Zs, dV)
        MdV = np.einsum("bdr,brn->bdn", Zs, ZtdV)
        residuals = np.sqrt(np.sum(MdV**2, axis=(1, 2)))
        gram = np.einsum("bdr,bds->brs", Zs, Zs)
        m_norms = np.sqrt(np.sum(gram**2, axis=(1, 2)))
        n_equal += int(np.sum(residuals <= _SEPARATION_RTOL * dv_norm * m_norms))
        max_residual = max(max_residual, float(residuals.max()))
        done += b
        chunk_idx += 1
    return SeparationResult(n_trials=n_trials, n_equal=n_equal, max_residual=max_residual)


@dataclass(frozen=True)
class Canary:
    """Adversarial probe record: Gaussian features with the least-likely label.

    ref_seed records which reference-model seed chose the label, since a
    different reference model may pick a different class.
    """

    x_q: np.ndarray
    y_q: int
    ref_seed: Seed


def craft_canary(
    task: "trainer_mod.TrainTask", trainer_config: "trainer_mod.DpTrainConfig", seed: Seed
) -> Canary:
    """Sample x_q ~ N(0, I) and label it with the reference model's least likely class."""
    if task.n_classes < 2:
        raise DomainError("craft_canary needs a classification task with >= 2 classes")
    rng = seed.child(0).generator()
    x_q = rng.standard_normal(task.n_features)
    ref_seed = seed.child(1)
    W_ref = trainer_mod.fit(task, trainer_config, ref_seed)
    scores = W_ref @ x_q
    y_q = int(np.argmin(scores))
    return Canary(x_q=x_q, y_q=y_q, ref_seed=ref_seed)


def roc_auc(scores_in, scores_out) -> tuple[float, float, float]:
    """AUC, best balanced accuracy, and the threshold attaining it.

    Lower score means member: AUC is the tie-corrected probability that a
    member score falls below a non-member score, and the balanced-accuracy
    sweep classifies "member" at score <= threshold over all unique scores.
    """
    s_in = np.asarray(list(scores_in), dtype=float)
    s_out = np.asarray(list(scores_out), dtype=float)
    if s_in.size == 0 or s_out.size == 0:
        raise DomainError("roc_auc: both score lists must be nonempty")
    if np.isnan(s_in).any() or np.isnan(s_out).any():
        raise DomainError("roc_auc: scores must not be NaN")
    wins = (s_in[:, None] < s_out[None, :]).sum()
    ties = (s_in[:, None] == s_out[None, :]).sum()
    auc = (wins + 0.5 * ties) / (s_in.size * s_out.size)

    thresholds = np.unique(np.concatenate([s_in, s_out]))
    in_sorted = np.sort(s_in)
    out_sorted = np.sort(s_out)
    tpr = np.searchsorted(in_sorted, thresholds, side="right") / s_in.size
    tnr = 1.0 - np.searchsorted(out_sorted, thresholds, side="right") / s_out.size
    bacc = 0.5 * (tpr + tnr)
    best = int(np.argmax(bacc))
    balanced_acc = max(0.5, float(bacc[best]))  # rejecting everyone scores 1/2
    return float(auc), balanced_acc, float(thresholds[best])


@dataclass(frozen=True)
class MiaResult:
    scores_in: np.ndarray
    scores_out: np.ndarray
    auc: float
    balanced_acc: float
    threshold: float

    def auc_stderr(self) -> float:
        """Hanley-McNeil standard error of the AUC estimate."""
        a = self.auc
        n1, n2 = self.scores_in.size, self.scores_out.size
        q1 = a / (2.0 - a)
        q2 = 2.0 * a * a / (1.0 + a)
        var = (a * (1 - a) + (n1 - 1) * (q1 - a * a) + (n2 - 1) * (q2 - a * a)) / (n1 * n2)
        return math.sqrt(max(var, 0.0))


def run_mia(
    task: "trainer_mod.TrainTask",
    trainer_config: "trainer_mod.DpTrainConfig",
    canary: Canary,
    n_in: int,
    n_out: int,
    seed: Seed,
) -> MiaResult:
    """Train n_in models on D + canary and n_out on D; score both by canary loss."""
    if n_in < 2 or n_out < 2:
        raise DomainError("run_mia needs at least 2 models on each side")
    task_in = task.add_example(canary.x_q, canary.y_q)
    scores_in = np.empty(n_in)
    scores_out = np.empty(n_out)
    for i in range(n_in):
        W = trainer_mod.fit(task_in, trainer_config, seed.child(i))
        scores_in[i] = task_in.example_loss(W, canary.x_q, canary.y_q)
    for j in range(n_out):
        W = trainer_mod.fit(task, trainer_config, seed.child(n_in + j))
        scores_out[j] = task.example_loss(W, canary.x_q, canary.y_q)
    auc, bacc, thr = roc_auc(scores_in, scores_out)
    return MiaResult(
        scores_in=scores_in,
        scores_out=scores_out,
        auc=auc,
        balanced_acc=bacc,
        threshold=thr,
    )
