"""Desk-scale private training loops on synthetic convex tasks.

Mechanisms:

* NOISE_FREE_LORA: frozen-factor low-rank training (LoRA-FA, Zhang et al.
  2023, arXiv:2308.03303) of the weights W = B A, update B <- B - eta G A^T,
  so W moves by -eta G A^T A;
* DP_LORA_FA: the same loop with per-example clipping of the B-gradient plus
  Gaussian noise;
* NOISY_PROJ: update the weights W <- W - eta (M (clip(G)^T + Xi))^T with a
  fresh M = Z Z^T every step, sampled as mechanisms.noisy_mech samples M2,
  along the path that draws the fewest normals (see mechanisms);
* RP_GD: vector-query projected gradient descent w <- w - eta M grad on the
  full-batch gradient, with a fresh M = Z Z^T every step.

The two private mechanisms share one accountant. Two datasets are
neighbours when one example is replaced by another, n fixed. A step clips
its query (DP-LoRA each example's gradient, noisy projection the batch-mean
gradient as one matrix), so a replaced example moves it by Delta V of norm at
most 2 clip, and adds Gaussian noise of scale sigma: a Gaussian mechanism of
mu = (2 clip / sigma)^2. Gaussian steps compose by adding mu (Dong, Roth & Su
2019, arXiv:1905.02383), so t steps spend T(eps; t mu): the plain price. It
holds for noisy projection too, whose step Z Z^T (V + Xi) post-processes the
Gaussian release V + Xi by a projection drawn independently of the data
(Blocki, Blum, Datta & Sheffet 2012). At a share alpha < 1 noisy projection
also has the capture price T(eps; t alpha mu) + t delta_M_bound(s, alpha, r, d),
valid when every Delta V has rank at most s. Once the whole-matrix clip binds,
Delta V can have rank n_out, not 2, so s = min(n_out, d). After each step
budget_spent reports the smallest of the plain price and the capture prices
at 1.5 r/d and at 32 shares whose gaps above the mean capture r/d grow
geometrically; they depend on (r, d) alone, so each is a valid bound.
eps_target and delta_target cover the whole run, and DP-LoRA calibrates its
sigma to them once per config, shared by the run's loop and its pricing.

train(task, cfg, seed) is the one entry point: it draws the steps from
seed.child(1), dispatches on the mechanism and yields each step's weights
and gradient. Only the LoRA mechanisms draw a frozen factor A, from
seed.child(0); noisy projection and rp_gd act on the weights alone. fit keeps
the last weights; the CLI prices every step of a run with one budget_spent
call. The per-mechanism loops dp_lora_fa(task, A, cfg, seed),
noisy_proj(task, W, cfg, seed) and rp_gd(task, w0, cfg, seed) share one shape
and yield (weights, gradient) per step; each holds only the state its step
reads and computes no loss or budget.

dp_lora_fa runs both LoRA mechanisms: noise-free LoRA is its sigma = 0,
clip = inf case, so the two share one gradient code path. That path clips with
ghost norms: for a linear model an example's B-gradient is an outer product
whose norm is a product of two vector norms (Goodfellow 2015,
arXiv:1510.01799; Li et al. 2022, arXiv:2110.05679), so no per-example
gradient is materialized. A run whose steps draw builds one generator and
resets it to each step's stream (Seed.reset), which draws what a generator
built per step would, for less. A run without draws builds none. A config
builds its noisy-projection NoisyMechParams once, not once per step.
Budgets never claim amplification by subsampling: with Poisson batches the
reported budget is the unamplified one.

noisy_proj runs NOISY_PROJ_BLOCK steps at a time. A pre-pass draws each step's
Poisson batch and its mechanism's normals from the step's own streams, and
factors the block's draws in batched calls (mechanisms.NoiseBlock); only the
gradient, its clip and the release are left to each step. A step draws what
mechanisms.noisy_mech would draw from its stream, so the weights do not
depend on the block size, bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import accountants, mechanisms
from .errors import ConfigError, DegenerateInputError, DomainError
from .mechanisms import NoisyMechParams, Variant
from .randmat import Seed, wishart_draw, wishart_factor

FULL_BATCH = "full"
# Steps whose draws a noisy-projection run makes and factors at once. The
# steps do not depend on it; at d = 128, r = 16 a block's buffers hold 0.3 MB.
NOISY_PROJ_BLOCK = 16


class TaskKind(enum.Enum):
    RIDGE = "ridge"
    LOGISTIC = "logistic"


class Mechanism(enum.Enum):
    NOISE_FREE_LORA = "noise_free_lora"
    DP_LORA_FA = "dp_lora_fa"
    NOISY_PROJ = "noisy_proj"
    RP_GD = "rp_gd"


@dataclass(eq=False)
class TrainTask:
    """Synthetic convex task; weights are (n_out x n_features) matrices.

    RIDGE is scalar-output squared error plus an L2 term; LOGISTIC is
    multinomial cross-entropy with integer labels. Per-example gradients
    carry the data term only; the (data-independent) regularizer is added to
    batch gradients after averaging.
    """

    kind: TaskKind
    n_features: int
    n_classes: int
    X: np.ndarray
    y: np.ndarray
    reg: float = 0.0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] != self.n_features:
            raise DomainError(f"X must have shape (n, {self.n_features}), got {self.X.shape}")
        if self.X.shape[0] == 0:
            raise DegenerateInputError("a task needs at least one example")
        if not np.all(np.isfinite(self.X)):
            raise DomainError("features must be finite")
        if not math.isfinite(self.reg):
            raise DomainError(f"reg must be finite, got {self.reg}")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.X.shape[0],):
            raise DomainError(f"y must have shape ({self.X.shape[0]},), got {y.shape}")
        self._check_labels(y)
        self.y = y.astype(int) if self.kind is TaskKind.LOGISTIC else y

    def _check_labels(self, y: np.ndarray) -> None:
        """Logistic labels must be integer class indices; ridge targets must be finite."""
        if self.kind is TaskKind.LOGISTIC:
            if not np.all((y >= 0) & (y < self.n_classes) & (y == np.floor(y))):
                raise DomainError(f"labels must be integer class indices in [0, {self.n_classes})")
        elif not np.all(np.isfinite(y)):
            raise DomainError("ridge targets must be finite")

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]

    @property
    def n_out(self) -> int:
        return self.n_classes if self.kind is TaskKind.LOGISTIC else 1

    def _logits(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return X @ W.T

    def loss(self, W: np.ndarray, idx: np.ndarray | None = None) -> float:
        X = self.X if idx is None else self.X[idx]
        y = self.y if idx is None else self.y[idx]
        if X.shape[0] == 0:
            return 0.0
        reg_term = 0.5 * self.reg * float(np.sum(W * W))
        if self.kind is TaskKind.RIDGE:
            resid = X @ W[0] - y
            return 0.5 * float(np.mean(resid**2)) + reg_term
        Z = self._logits(W, X)
        Z -= Z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(Z).sum(axis=1))
        return float(np.mean(log_norm - Z[self._rows[: X.shape[0]], y])) + reg_term

    def output_grad(self, W: np.ndarray, idx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Batch rows X and the data-term gradient P with respect to the outputs X W^T.

        P is (n x n_out): the residual column for RIDGE, softmax minus one-hot
        for LOGISTIC. Example b's W-gradient is the outer product p_b x_b^T.
        """
        X = self.X if idx is None else self.X[idx]
        y = self.y if idx is None else self.y[idx]
        if self.kind is TaskKind.RIDGE:
            return X, (X @ W[0] - y)[:, None]
        # the softmax of the logits, in place
        P = self._logits(W, X)
        P -= P.max(axis=1, keepdims=True)
        np.exp(P, out=P)
        P /= P.sum(axis=1, keepdims=True)
        P[self._rows[: X.shape[0]], y] -= 1.0
        return X, P

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """0, ..., n_examples - 1: the row index of each label in output_grad."""
        return np.arange(self.n_examples)

    def per_example_grad_W(self, W: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """Data-term gradients, one (n_out x n_features) slice per example.

        Materializes an (n, n_out, n_features) tensor; training never calls it
        and tests use it as the reference for the ghost-norm kernel.
        """
        X, P = self.output_grad(W, idx)
        return P[:, :, None] * X[:, None, :]

    def grad_W(self, W: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        X, P = self.output_grad(W, idx)
        if X.shape[0] == 0:
            return self.reg * W
        G = P.T @ X
        G /= X.shape[0]
        G += self.reg * W
        return G

    def example_loss(self, W: np.ndarray, x: np.ndarray, y) -> float:
        """Loss of a single probe example (no regularizer)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,) or not np.all(np.isfinite(x)):
            raise DomainError(f"probe features must be a finite vector of length {self.n_features}")
        self._check_labels(np.asarray(y, dtype=float))
        z = W @ x
        if self.kind is TaskKind.RIDGE:
            return 0.5 * float((z[0] - y) ** 2)
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[int(y)])

    def add_example(self, x: np.ndarray, y) -> "TrainTask":
        X = np.vstack([self.X, np.asarray(x, dtype=float)[None, :]])
        y_new = np.concatenate([self.y, [y]])
        return TrainTask(
            kind=self.kind,
            n_features=self.n_features,
            n_classes=self.n_classes,
            X=X,
            y=y_new,
            reg=self.reg,
        )

    def ridge_optimum(self) -> np.ndarray:
        if self.kind is not TaskKind.RIDGE:
            raise DomainError("ridge_optimum is only defined for ridge tasks")
        d = self.n_features
        H = self.X.T @ self.X / self.n_examples + self.reg * np.eye(d)
        return np.linalg.solve(H, self.X.T @ self.y / self.n_examples)


def make_ridge_task(
    n: int, d: int, seed: Seed, noise: float = 0.1, reg: float = 1e-3
) -> TrainTask:
    rng = seed.generator()
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d) / math.sqrt(d)
    y = X @ w_true + noise * rng.standard_normal(n)
    return TrainTask(kind=TaskKind.RIDGE, n_features=d, n_classes=1, X=X, y=y, reg=reg)


def make_logistic_task(n: int, d: int, n_classes: int, seed: Seed, reg: float = 0.0) -> TrainTask:
    """Standard-normal features, labels from a random ground-truth linear map."""
    if n_classes < 1:
        raise DomainError(f"a logistic task needs n_classes >= 1, got {n_classes}")
    rng = seed.generator()
    X = rng.standard_normal((n, d))
    W_true = rng.standard_normal((n_classes, d)) / math.sqrt(d)
    y = np.argmax(X @ W_true.T, axis=1)
    return TrainTask(kind=TaskKind.LOGISTIC, n_features=d, n_classes=n_classes, X=X, y=y, reg=reg)


def _is_count(value) -> bool:
    """Whether value is an integer; a bool is not, although Python counts it as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DpTrainConfig:
    T: int
    eta: float
    batch: int | str = FULL_BATCH
    clip: float = math.inf
    sigma: float | None = None
    eps_target: float | None = None
    delta_target: float | None = None
    mechanism: Mechanism = Mechanism.NOISE_FREE_LORA
    r: int = 8

    def __post_init__(self):
        for name in ("T", "r"):
            if not _is_count(getattr(self, name)):
                raise ConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.T < 1:
            raise DomainError(f"T must be >= 1, got {self.T}")
        if not 0.0 < self.eta < math.inf:
            raise ConfigError(f"eta must be finite and > 0, got {self.eta}")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.eps_target is not None and not math.isfinite(self.eps_target):
            raise ConfigError(f"eps_target must be finite, got {self.eps_target}")
        if self.delta_target is not None and not 0.0 < self.delta_target < 1.0:
            raise ConfigError(f"delta_target must lie in (0, 1), got {self.delta_target}")
        # DP-LoRA derives sigma from the budget (or vice versa), never both
        if self.mechanism is Mechanism.DP_LORA_FA and self.sigma is not None and self.eps_target is not None:
            raise ConfigError("set either sigma or (eps_target, delta_target), not both")
        if self.mechanism is Mechanism.NOISY_PROJ and (self.sigma is None or not self.sigma > 0.0):
            raise ConfigError(f"noisy projection requires sigma > 0, got {self.sigma}")
        private = self.mechanism in (Mechanism.DP_LORA_FA, Mechanism.NOISY_PROJ)
        if private and (self.sigma or self.eps_target is not None) and not math.isfinite(self.clip):
            raise ConfigError(f"{self.mechanism.value} with noise or a privacy target needs a finite clip")
        if self.eps_target is not None and self.delta_target is None:
            raise ConfigError("eps_target requires delta_target")
        if self.batch != FULL_BATCH and (not _is_count(self.batch) or self.batch < 1):
            raise ConfigError(f"batch must be 'full' or a positive int, got {self.batch!r}")
        if self.mechanism is Mechanism.RP_GD and self.batch != FULL_BATCH:
            raise ConfigError(f"rp_gd steps on the full-batch gradient, got batch {self.batch!r}")
        if not self.clip > 0.0:
            raise DomainError(f"clip must be > 0, got {self.clip}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")
        if self.eps_target is not None and not self.eps_target > 0.0:
            raise DomainError(f"eps_target must be > 0, got {self.eps_target}")

    @functools.cached_property
    def _lora_sigma(self) -> float:
        """_lora_fa_sigma(self), once per config: a run's loop and its pricing share one calibration."""
        return _lora_fa_sigma(self)

    @functools.cached_property
    def _m2_params(self) -> NoisyMechParams:
        """The noisy-projection step's M2 mechanism: noise sigma, clip_beta clip."""
        return NoisyMechParams(variant=Variant.M2, r=self.r, sigma_G=self.sigma, clip_beta=self.clip)


def _batch_indices(task: TrainTask, cfg: DpTrainConfig, rng: np.random.Generator | None):
    """Poisson-subsampled indices at rate q = batch/N, or everything.

    rng is read only for Poisson batches; a full batch may pass None.
    """
    if cfg.batch == FULL_BATCH:
        return None, task.n_examples
    q = min(1.0, cfg.batch / task.n_examples)
    mask = rng.random(task.n_examples) < q
    return np.flatnonzero(mask), cfg.batch


def _clipped_mean_grad_B(
    task: TrainTask,
    W: np.ndarray,
    A: np.ndarray,
    idx: np.ndarray | None,
    clip: float,
    divisor: int,
) -> np.ndarray:
    """Per-example B-gradients via the chain rule, clipped and averaged.

    Example b's B-gradient is the outer product p_b (A x_b)^T, so its norm is
    ||p_b|| ||A x_b|| and the clipped sum is (f * P)^T (X A^T) with f the
    per-example clip factors ("ghost" norms: Goodfellow 2015, arXiv:1510.01799;
    Li et al. 2022, arXiv:2110.05679). No per-example gradient is formed.

    At clip = inf (noise-free LoRA) the clipping is skipped, so the step is
    plain gradient descent on B.
    """
    X, P = task.output_grad(W, idx)
    if X.shape[0] == 0:
        return np.zeros((W.shape[0], A.shape[0]))
    XA = X @ A.T
    if math.isfinite(clip):
        norms = np.linalg.norm(P, axis=1) * np.linalg.norm(XA, axis=1)
        factors = np.minimum(1.0, clip / np.maximum(norms, 1e-300))
        P = P * factors[:, None]
    return P.T @ XA / divisor


def _lora_fa_sigma(cfg: DpTrainConfig) -> float:
    """The DP LoRA loop's noise scale: cfg.sigma, or calibrated to (eps_target, delta_target).

    The calibrated sigma = 2 clip sqrt(T / mu*) makes the T steps' summed mu
    the largest mu* that spends at most delta_target at eps_target.
    """
    if cfg.eps_target is not None:
        mu = accountants.max_gaussian_mu(cfg.eps_target, cfg.delta_target)
        return 2.0 * cfg.clip * math.sqrt(cfg.T / mu)
    return cfg.sigma or 0.0


def dp_lora_fa(
    task: TrainTask, A: np.ndarray, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Frozen-factor LoRA: B <- B - eta ghat from B = 0, on the weights W = B A.

    A is the frozen (r x d) factor. Yields (W, ghat) after each step, ghat
    being the clipped, noised B-gradient the step used; step t draws from
    seed.child(t). DP_LORA_FA clips at cfg.clip and adds noise of the sigma
    that _lora_fa_sigma resolves: each step is a Gaussian mechanism of
    sensitivity 2 * clip on the summed clipped gradient, and budget_spent
    prices the run by exact Gaussian composition. NOISE_FREE_LORA runs the
    same loop at sigma = 0, clip = inf.
    """
    if cfg.mechanism is Mechanism.NOISE_FREE_LORA:
        sigma, clip = 0.0, math.inf
    elif cfg.mechanism is Mechanism.DP_LORA_FA:
        sigma, clip = cfg._lora_sigma, cfg.clip
    else:
        raise ConfigError(f"dp_lora_fa called with mechanism {cfg.mechanism}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != task.n_features:
        raise DomainError(f"A must have shape (r, {task.n_features}), got {A.shape}")
    # one generator per run, reset to step t's stream seed.child(t)
    rng = seed.generator() if sigma > 0.0 or cfg.batch != FULL_BATCH else None
    B = np.zeros((task.n_out, A.shape[0]))
    W = B @ A
    for t in range(cfg.T):
        if rng is not None:
            seed.child(t).reset(rng)
        idx, divisor = _batch_indices(task, cfg, rng)
        ghat = _clipped_mean_grad_B(task, W, A, idx, clip, divisor)
        if task.reg:
            ghat = ghat + (task.reg * W) @ A.T
        if sigma > 0.0:
            noise = rng.standard_normal(ghat.shape)
            ghat = ghat + (sigma / divisor) * noise
        B = B - cfg.eta * ghat
        W = B @ A
        yield W, ghat


def noisy_proj(
    task: TrainTask, W: np.ndarray, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, None]]:
    """Clipped noisy-projection steps W <- W - eta (M (clip(G)^T + Xi))^T from W.

    Step t takes its Poisson batch from seed.child(t), and the M2 mechanism
    draws its fresh M = Z Z^T and noise Xi from seed.child(t).child(0). The
    steps run NOISY_PROJ_BLOCK at a time: a pre-pass draws each step's batch
    and its mechanism's NoiseBlock, which do not depend on the weights, so
    each step computes only its gradient and the release. Yields (W, None)
    after each step: the gradient stays inside the mechanism.
    """
    if cfg.mechanism is not Mechanism.NOISY_PROJ:
        raise ConfigError(f"noisy_proj called with mechanism {cfg.mechanism}")
    W = np.asarray(W, dtype=float)
    if W.shape != (task.n_out, task.n_features):
        raise DomainError(f"W must have shape ({task.n_out}, {task.n_features}), got {W.shape}")
    rng = seed.generator()  # one generator per run, reset to each stream
    for start in range(0, cfg.T, NOISY_PROJ_BLOCK):
        seeds = [seed.child(t) for t in range(start, min(start + NOISY_PROJ_BLOCK, cfg.T))]
        if cfg.batch == FULL_BATCH:
            batches = [None] * len(seeds)
        else:
            batches = [_batch_indices(task, cfg, s.reset(rng))[0] for s in seeds]
        noise = mechanisms.NoiseBlock(
            cfg._m2_params, task.n_features, task.n_out, [s.child(0) for s in seeds], rng
        )
        for b, idx in enumerate(batches):
            step = noise.release(b, task.grad_W(W, idx).T).T
            step *= cfg.eta
            W = W - step
            yield W, None


def budget_spent(cfg: DpTrainConfig, task: TrainTask) -> list[tuple[float, float]]:
    """(eps, delta) spent after each of the cfg.T steps of a run on task.

    Step t reports the smallest price (module docstring) over the candidate
    shares at eps = eps_target, or at eps = 1 without one. A run without
    noise spends (inf, 0). One array pass prices every step and candidate.
    """
    if cfg.mechanism is Mechanism.DP_LORA_FA:
        sigma = cfg._lora_sigma
    elif cfg.mechanism is Mechanism.NOISY_PROJ:
        sigma = cfg.sigma
    else:
        sigma = 0.0
    if sigma == 0.0:
        return [(math.inf, 0.0)] * cfg.T
    # (2 clip / sigma) squared, not (2 clip)^2 / sigma^2: sigma^2 underflows to 0
    ratio = 2.0 * cfg.clip / sigma
    mu = ratio * ratio
    if not math.isfinite(mu):
        raise DomainError(f"mu = (2 clip / sigma)^2 must be finite, got {mu}")
    shares, fails = [1.0], [0.0]  # (captured share, per-step capture failure)
    r, d = cfg.r, task.n_features
    if cfg.mechanism is Mechanism.NOISY_PROJ and r < d:
        # gaps above r/d from half the sd of Beta(r/2, (d-r)/2) to just below 1 - r/d
        gaps = np.geomspace(0.5 * math.sqrt(r / d * (1.0 - r / d) / (d / 2.0 + 1.0)), 1.0 - r / d, 33)
        shares += [a for a in [*(r / d + gaps[:-1]).tolist(), 1.5 * r / d] if a < 1.0]
        fails += [accountants.delta_M_bound(min(task.n_out, d), a, r, d) for a in shares[1:]]
    eps = cfg.eps_target if cfg.eps_target is not None else 1.0
    t = np.arange(1.0, cfg.T + 1.0)[:, None]
    mu_sum = t * (np.asarray(shares) * mu)
    root = np.sqrt(mu_sum)
    # T(eps; mu) as accountants.gaussian_tradeoff; T(eps; 0) = Phi(-inf) + Phi(-inf) = 0
    with np.errstate(divide="ignore"):
        delta = special.ndtr((-eps - mu_sum / 2.0) / root) + special.ndtr(-(eps - mu_sum / 2.0) / root)
    delta += t * np.asarray(fails)
    return [(eps, dl) for dl in np.minimum(1.0, delta.min(axis=1)).tolist()]


def rp_gd(
    task: TrainTask, w0: np.ndarray, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Projected gradient descent w <- w - eta M grad on a scalar-output task.

    M = Z Z^T for a fresh (d x r) Wishart factor Z, drawn from seed.child(t)
    at step t; the gradient is the full-batch one. Yields (w, grad) after each
    step, grad being the gradient the step used.
    """
    if cfg.mechanism is not Mechanism.RP_GD:
        raise ConfigError(f"rp_gd called with mechanism {cfg.mechanism}")
    if task.n_out != 1:
        raise DomainError("rp_gd is defined for scalar-output (vector-query) tasks")
    w = np.asarray(w0, dtype=float).copy()
    rng = seed.generator()  # one generator per run, reset to each draw's stream
    for t in range(cfg.T):
        Z = wishart_factor(seed.child(t).reset(rng), w.shape[0], cfg.r)
        g = task.grad_W(w[None, :])[0]
        w = w - cfg.eta * ((Z @ Z.T) @ g)
        yield w, g


def train(
    task: TrainTask, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Train from zero initial weights, yielding (weights, gradient) per step.

    The steps draw from seed.child(1); the LoRA mechanisms draw their frozen
    factor A = Z^T, for a (d x r) Wishart factor Z so that E[A^T A] = I, from
    seed.child(0). The gradient is the noised B-gradient for the LoRA
    mechanisms, the weight gradient for rp_gd, and None for noisy projection,
    whose gradient stays inside the mechanism.
    """
    if cfg.mechanism is Mechanism.RP_GD:
        steps = rp_gd(task, np.zeros(task.n_features), cfg, seed.child(1))
        yield from ((w[None, :], g) for w, g in steps)
    elif cfg.mechanism is Mechanism.NOISY_PROJ:
        yield from noisy_proj(task, np.zeros((task.n_out, task.n_features)), cfg, seed.child(1))
    else:
        A = wishart_draw(task.n_features, cfg.r, seed.child(0)).Z.T
        yield from dp_lora_fa(task, A, cfg, seed.child(1))


def fit(task: TrainTask, cfg: DpTrainConfig, seed: Seed) -> np.ndarray:
    """The final weights of train(task, cfg, seed); a run that diverged raises DomainError."""
    for W, _ in train(task, cfg, seed):
        pass
    if not np.isfinite(W).all():
        raise DomainError(f"the run diverged: its final weights are not finite (eta = {cfg.eta})")
    return W


# ---------------------------------------------------------------------------
# Flat key=value config files (every DpTrainConfig field nameable)
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {
    "T": int,
    "eta": float,
    "batch": None,
    "clip": float,
    "sigma": float,
    "eps_target": float,
    "delta_target": float,
    "mechanism": None,
    "r": int,
}


def load_config(path) -> DpTrainConfig:
    values: dict = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                if key == "mechanism":
                    values[key] = Mechanism(val.lower())
                elif key == "batch":
                    values[key] = FULL_BATCH if val.lower() == FULL_BATCH else int(val)
                else:
                    caster = _CONFIG_FIELDS[key]
                    values[key] = caster(val) if val.lower() != "none" else None
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {val!r}") from None
    if "T" not in values or "eta" not in values:
        raise ConfigError(f"{path}: config must set at least T and eta")
    return DpTrainConfig(**values)
