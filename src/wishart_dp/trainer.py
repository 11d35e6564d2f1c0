"""Desk-scale private training loops on synthetic convex tasks.

Mechanisms:

* NOISE_FREE_LORA: frozen-factor low-rank training (LoRA-FA, Zhang et al.
  2023, arXiv:2308.03303) of the weights W = B A, update B <- B - eta G A^T,
  so W moves by -eta G A^T A;
* DP_LORA_FA: the same loop with per-example clipping of the B-gradient plus
  Gaussian noise, budget reported by basic composition of the per-step
  guarantee;
* NOISY_PROJ: update the weights W <- W - eta (M (clip(G)^T + Xi))^T with a
  fresh M = Z Z^T every step; accounted by the exact Gaussian trade-off on
  the summed per-step mu plus a per-step capture-failure term;
* RP_GD: vector-query projected gradient descent w <- w - eta M grad.

train(task, cfg, seed) is the one entry point: it draws the steps from
seed.child(1), dispatches on the mechanism and yields each step's weights
and gradient. Only the LoRA mechanisms draw a frozen factor A, from
seed.child(0); noisy projection and rp_gd act on the weights alone. fit keeps
the last weights; the CLI prices each step with budget_spent. Each
per-mechanism loop (dp_lora_fa, noisy_proj_step, rp_gd) holds only the state
its step reads and computes no loss or budget.

dp_lora_fa runs both LoRA mechanisms: noise-free LoRA is its sigma = 0,
clip = inf case, so the two share one gradient code path. That path clips with
ghost norms: for a linear model an example's B-gradient is an outer product
whose norm is a product of two vector norms (Goodfellow 2015,
arXiv:1510.01799; Li et al. 2022, arXiv:2110.05679), so no per-example
gradient is materialized. A step builds a random generator only when it
draws from it.
Budgets never claim amplification by subsampling: with Poisson batches the
reported budget is the unamplified one.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import accountants, mechanisms
from .errors import ConfigError, DomainError
from .mechanisms import NoisyMechParams, SigmaConvention, Variant
from .randmat import Seed, wishart_draw

FULL_BATCH = "full"


class TaskKind(enum.Enum):
    RIDGE = "ridge"
    LOGISTIC = "logistic"


class Mechanism(enum.Enum):
    NOISE_FREE_LORA = "noise_free_lora"
    DP_LORA_FA = "dp_lora_fa"
    NOISY_PROJ = "noisy_proj"
    RP_GD = "rp_gd"

    @property
    def private(self) -> bool:
        """Whether a run of this mechanism reports a privacy budget."""
        return self in (Mechanism.DP_LORA_FA, Mechanism.NOISY_PROJ)


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
        if not np.all(np.isfinite(self.X)):
            raise DomainError("features must be finite")
        if self.kind is TaskKind.LOGISTIC:
            self.y = np.asarray(self.y, dtype=int)
            if self.y.min() < 0 or self.y.max() >= self.n_classes:
                raise DomainError("labels must be valid class indices")
        else:
            self.y = np.asarray(self.y, dtype=float)
            if not np.all(np.isfinite(self.y)):
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
        Z = Z - Z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(Z).sum(axis=1))
        return float(np.mean(log_norm - Z[np.arange(X.shape[0]), y])) + reg_term

    def output_grad(self, W: np.ndarray, idx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Batch rows X and the data-term gradient P with respect to the outputs X W^T.

        P is (n x n_out): the residual column for RIDGE, softmax minus one-hot
        for LOGISTIC. Example b's W-gradient is the outer product p_b x_b^T.
        """
        X = self.X if idx is None else self.X[idx]
        y = self.y if idx is None else self.y[idx]
        if self.kind is TaskKind.RIDGE:
            return X, (X @ W[0] - y)[:, None]
        Z = self._logits(W, X)
        Z = Z - Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(X.shape[0]), y] -= 1.0
        return X, P

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
        return P.T @ X / X.shape[0] + self.reg * W

    def example_loss(self, W: np.ndarray, x: np.ndarray, y) -> float:
        """Loss of a single probe example (no regularizer)."""
        x = np.asarray(x, dtype=float)
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise DomainError("probe example must be finite")
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
    rng = seed.generator()
    X = rng.standard_normal((n, d))
    W_true = rng.standard_normal((n_classes, d)) / math.sqrt(d)
    y = np.argmax(X @ W_true.T, axis=1)
    return TrainTask(kind=TaskKind.LOGISTIC, n_features=d, n_classes=n_classes, X=X, y=y, reg=reg)


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
    alpha: float | None = None
    sens_rank: int = 2
    redraw_each_step: bool = True

    def __post_init__(self):
        if self.T < 1:
            raise DomainError(f"T must be >= 1, got {self.T}")
        if not math.isfinite(self.eta):
            raise ConfigError(f"eta must be finite, got {self.eta}")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.delta_target is not None and not 0.0 < self.delta_target < 1.0:
            raise ConfigError(f"delta_target must lie in (0, 1), got {self.delta_target}")
        if self.mechanism is Mechanism.DP_LORA_FA:
            # there sigma derives from the budget (or vice versa), never both
            if self.sigma is not None and self.eps_target is not None:
                raise ConfigError("set either sigma or (eps_target, delta_target), not both")
            if self.eps_target is not None and not math.isfinite(self.clip):
                raise ConfigError("a privacy target needs a finite clipping threshold")
        if self.mechanism is Mechanism.NOISY_PROJ:
            if self.sigma is None or not self.sigma > 0.0:
                raise ConfigError(f"noisy projection requires sigma > 0, got {self.sigma}")
            if not math.isfinite(self.clip):
                raise ConfigError("noisy projection requires a finite clipping threshold")
        if self.eps_target is not None and self.delta_target is None:
            raise ConfigError("eps_target requires delta_target")
        if self.batch != FULL_BATCH and (not isinstance(self.batch, int) or self.batch < 1):
            raise ConfigError(f"batch must be 'full' or a positive int, got {self.batch!r}")
        if not self.clip > 0.0:
            raise DomainError(f"clip must be > 0, got {self.clip}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")
        if self.eps_target is not None and not self.eps_target > 0.0:
            raise DomainError(f"eps_target must be > 0, got {self.eps_target}")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")


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


def _lora_fa_sigma(cfg: DpTrainConfig) -> tuple[float, float, float]:
    """Resolve (sigma, per-step eps, per-step delta) for the DP LoRA loop."""
    if cfg.eps_target is not None:
        sigma = mechanisms.gaussian_sigma(
            cfg.clip, cfg.eps_target, cfg.delta_target, SigmaConvention.ALGORITHM
        )
        return sigma, cfg.eps_target, cfg.delta_target
    sigma = cfg.sigma or 0.0
    if sigma > 0.0 and cfg.delta_target is not None:
        eps_step = 2.0 * cfg.clip * math.sqrt(2.0 * math.log(1.25 / cfg.delta_target)) / sigma
        return sigma, eps_step, cfg.delta_target
    return sigma, math.inf, 0.0


def dp_lora_fa(
    task: TrainTask, A: np.ndarray, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Frozen-factor LoRA: B <- B - eta ghat from B = 0, on the weights W = B A.

    A is the frozen (r x d) factor. Yields (W, ghat) after each step, ghat
    being the clipped, noised B-gradient the step used; step t draws from
    seed.child(t). DP_LORA_FA clips at cfg.clip and adds noise of the sigma
    that _lora_fa_sigma resolves: the per-step mechanism is Gaussian with
    sensitivity 2 * clip on the summed clipped gradient, and budget_spent
    prices the steps. NOISE_FREE_LORA runs the same loop at sigma = 0,
    clip = inf.
    """
    if cfg.mechanism is Mechanism.NOISE_FREE_LORA:
        sigma, clip = 0.0, math.inf
    elif cfg.mechanism is Mechanism.DP_LORA_FA:
        sigma, clip = _lora_fa_sigma(cfg)[0], cfg.clip
    else:
        raise ConfigError(f"dp_lora_fa called with mechanism {cfg.mechanism}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != task.n_features:
        raise DomainError(f"A must have shape (r, {task.n_features}), got {A.shape}")
    draws = sigma > 0.0 or cfg.batch != FULL_BATCH
    B = np.zeros((task.n_out, A.shape[0]))
    W = B @ A
    for t in range(cfg.T):
        rng = seed.child(t).generator() if draws else None
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


def noisy_proj_step(task: TrainTask, W: np.ndarray, cfg: DpTrainConfig, seed: Seed) -> np.ndarray:
    """One clipped noisy-projection step: the next weights W - eta (M (clip(G)^T + Xi))^T.

    The M2 mechanism draws the fresh factor of M = Z Z^T and the noise Xi
    from seed.child(0); a Poisson batch draws from seed itself. The step's
    privacy cost is priced by noisy_proj_budget.
    """
    if cfg.mechanism is not Mechanism.NOISY_PROJ:
        raise ConfigError(f"noisy_proj_step called with mechanism {cfg.mechanism}")
    idx, _ = _batch_indices(task, cfg, None if cfg.batch == FULL_BATCH else seed.generator())
    G = task.grad_W(W, idx)
    params = NoisyMechParams(variant=Variant.M2, r=cfg.r, sigma_G=cfg.sigma, clip_beta=cfg.clip)
    return W - cfg.eta * mechanisms.noisy_mech(G.T, params, seed.child(0)).T


def noisy_proj_budget(cfg: DpTrainConfig, T: int, eps: float, d: int) -> float:
    """delta(eps) of T composed noisy-projection steps.

    Each step contributes mu_t = alpha (2 clip)^2 / sigma^2 to the exact
    Gaussian trade-off and one capture-failure probability delta_p; the total
    is T(eps; sum mu_t) + T delta_p.
    """
    if cfg.mechanism is not Mechanism.NOISY_PROJ:
        raise ConfigError(f"noisy_proj_budget called with mechanism {cfg.mechanism}")
    alpha = cfg.alpha if cfg.alpha is not None else min(1.0, 1.5 * cfg.r / d)
    # (2 clip / sigma) squared, not (2 clip)^2 / sigma^2: sigma^2 underflows to 0
    ratio = 2.0 * cfg.clip / cfg.sigma
    mu_step = alpha * ratio * ratio
    if not math.isfinite(mu_step):
        raise DomainError(f"mu_step = alpha (2 clip / sigma)^2 must be finite, got {mu_step}")
    delta_p = accountants.delta_M_bound(cfg.sens_rank, alpha, cfg.r, d) if alpha < 1.0 else 0.0
    return accountants.compose_gaussian_steps([mu_step] * T, eps, delta_p)


def budget_spent(cfg: DpTrainConfig, t: int, d: int) -> tuple[float, float]:
    """(eps, delta) spent after t steps of a run over d features.

    DP-LoRA spends t times its per-step guarantee (basic composition); noisy
    projection reports delta at eps_target, or at eps = 1 without one; the
    non-private mechanisms spend (inf, 0).
    """
    if cfg.mechanism is Mechanism.DP_LORA_FA:
        _, eps_step, delta_step = _lora_fa_sigma(cfg)
        return accountants.compose_basic([(eps_step, delta_step)], k=t)
    if cfg.mechanism is Mechanism.NOISY_PROJ:
        eps = cfg.eps_target if cfg.eps_target is not None else 1.0
        return eps, noisy_proj_budget(cfg, t, eps, d)
    return math.inf, 0.0


def rp_gd(
    task: TrainTask, w0: np.ndarray, cfg: DpTrainConfig, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Projected gradient descent w <- w - eta M grad on a scalar-output task.

    M = Z Z^T for a (d x r) Wishart factor Z, drawn from seed.child(t) at
    step t when cfg.redraw_each_step, else once from seed.child(0). Yields (w, grad) after each step, grad being the gradient
    the step used.
    """
    if cfg.mechanism is not Mechanism.RP_GD:
        raise ConfigError(f"rp_gd called with mechanism {cfg.mechanism}")
    if task.n_out != 1:
        raise DomainError("rp_gd is defined for scalar-output (vector-query) tasks")
    w = np.asarray(w0, dtype=float).copy()
    for t in range(cfg.T):
        if t == 0 or cfg.redraw_each_step:
            M = wishart_draw(w.shape[0], cfg.r, seed.child(t)).M
        g = task.grad_W(w[None, :])[0]
        w = w - cfg.eta * (M @ g)
        yield w, g


@dataclass(frozen=True)
class ClipCompareResult:
    zeta: float
    interval_low: float
    interval_high: float
    vacuous: bool


def clip_compare(n: int, r: int, delta_jl: float, beta: float) -> ClipCompareResult:
    """Relate the B-space and W-space clipping thresholds through the sketch distortion.

    With distortion zeta, a W-space threshold beta corresponds to a B-space
    threshold in [beta / sqrt(1 + zeta), beta / sqrt(1 - zeta)].
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be > 0, got {beta}")
    jz = accountants.jl_clip_zeta(n, r, delta_jl)
    if jz.vacuous:
        low, high = beta / math.sqrt(1.0 + jz.zeta), math.inf
    else:
        low, high = beta / math.sqrt(1.0 + jz.zeta), beta / math.sqrt(1.0 - jz.zeta)
    return ClipCompareResult(
        zeta=jz.zeta, interval_low=low, interval_high=high, vacuous=jz.vacuous
    )


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
        for w, g in rp_gd(task, np.zeros(task.n_features), cfg, seed.child(1)):
            yield w[None, :], g
        return
    if cfg.mechanism is Mechanism.NOISY_PROJ:
        W, step_seed = np.zeros((task.n_out, task.n_features)), seed.child(1)
        for t in range(cfg.T):
            W = noisy_proj_step(task, W, cfg, step_seed.child(t))
            yield W, None
        return
    A = wishart_draw(task.n_features, cfg.r, seed.child(0)).Z.T
    yield from dp_lora_fa(task, A, cfg, seed.child(1))


def fit(task: TrainTask, cfg: DpTrainConfig, seed: Seed) -> np.ndarray:
    """The final weights of train(task, cfg, seed)."""
    for W, _ in train(task, cfg, seed):
        pass
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
    "alpha": float,
    "sens_rank": int,
    "redraw_each_step": None,
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config(path) -> DpTrainConfig:
    values: dict = {}
    with open(path) as fh:
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
                elif key == "redraw_each_step":
                    values[key] = _BOOLS[val.lower()]
                else:
                    caster = _CONFIG_FIELDS[key]
                    values[key] = caster(val) if val.lower() != "none" else None
            except (KeyError, ValueError):
                raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {val!r}") from None
    if "T" not in values or "eta" not in values:
        raise ConfigError(f"{path}: config must set at least T and eta")
    return DpTrainConfig(**values)
