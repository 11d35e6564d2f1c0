"""Closed-form privacy accounting for the projection mechanisms.

Three regimes are covered:

* vector queries: a noise-free bound driven by the minimum alignment rho of
  neighbor outputs, with quantile-based intermediates (K, a-, a+, b) and a
  Monte Carlo support-failure term;
* noisy matrix queries at small rank: the exact Gaussian trade-off at the
  captured sensitivity alpha * ||dV||_F^2 plus a Beta-tail term for the event
  that the random column space captures more than alpha;
* noisy matrix queries at large rank: an orthogonal split into a parallel
  block (Gaussian mechanism with a high-probability operator bound Gamma_beta)
  and a residual block accounted by the vector bound at reduced dimensions.

Each report holds only what its accountant computed: the intermediates and the
(eps, delta) pair, with the unclamped delta alongside the [0, 1]-clamped value.
The caller's inputs are not echoed back; the CLI builds the JSON shape.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    InadmissibleAlignmentError,
    PreconditionError,
    RegimeError,
    VacuousBoundWarning,
)
from . import profiler
from .randmat import Seed
from .specialfn import chi2_quantile, normal_cdf, reg_inc_betac, student_t_quantile

DEFAULT_SUPPORT_SAMPLES = 10**6


@dataclass(frozen=True)
class AlignmentSpec:
    """Minimum alignment rho over declared neighbor pairs, at dimensions (d, r)."""

    rho: float
    d: int
    r: int

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.d < 2:
            raise DomainError(f"d must be >= 2, got {self.d}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")


def min_alignment(pairs) -> float:
    """Minimum inner product over declared neighbor pairs of (near-)unit vectors."""
    pairs = list(pairs)
    if not pairs:
        raise DegenerateInputError("min_alignment: empty pair list")
    worst = 1.0
    for u, w in pairs:
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        nu, nw = float(np.linalg.norm(u)), float(np.linalg.norm(w))
        if not (abs(nu - 1.0) <= 1e-8 and abs(nw - 1.0) <= 1e-8):
            raise DomainError(
                f"min_alignment expects unit vectors within 1e-8 (norms {nu:.3g}, {nw:.3g})"
            )
        worst = min(worst, float(u @ w) / (nu * nw))
    return worst


def alignment_lower_bound(L: float, c0: float, n: int) -> float:
    """Worst-case alignment of a normalized average of n bounded vectors.

    One record change moves the unnormalized average by at most 2L/n; with the
    norm bounded below by c0 the normalized outputs satisfy
    rho >= 1 - 8 L^2 / (c0^2 n^2).
    """
    if not c0 > 0.0:
        raise DomainError(f"c0 must be > 0, got {c0}")
    if not L >= 0.0:
        raise DomainError(f"L must be >= 0, got {L}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return max(-1.0, 1.0 - 8.0 * L * L / (c0 * c0 * n * n))


def vec_admissibility_threshold(r: int, delta_prime: float) -> float:
    """The alignment rho must exceed t_r(1-delta') / sqrt(r + t_r(1-delta')^2)."""
    t = student_t_quantile(r, 1.0 - delta_prime)
    return t / math.sqrt(r + t * t)


@dataclass(frozen=True)
class VecAccountReport:
    """What the vector bound computed: the quantile intermediates, the support
    term with its Monte Carlo stderr, and (eps, delta) with delta unclamped."""

    K: float
    a_minus: float
    a_plus: float
    b: float
    delta_support: float
    delta_support_stderr: float
    eps_rho: float
    delta_rho: float
    delta_rho_unclamped: float


def account_vec(
    spec: AlignmentSpec,
    delta_prime: float,
    seed: Seed = Seed(0),
    support_samples: int = DEFAULT_SUPPORT_SAMPLES,
) -> VecAccountReport:
    """Noise-free vector bound at minimum alignment rho.

    eps = ((d - r + 1)/2) ln(rho + K) + (1 - rho + K) b / (2 (rho - K)) with
    K = sqrt((1 - rho^2)/r) t_r(1 - delta') and b the chi-square quantile at
    d + r - 1 dof; delta = delta_support + 3 delta'. The support-failure mass
    is estimated by Monte Carlo under the given seed.
    """
    rho, d, r = spec.rho, spec.d, spec.r
    if not 0.0 < delta_prime < 1.0:
        raise DomainError(f"delta_prime must lie in (0, 1), got {delta_prime}")
    if rho <= 0.0:
        raise DomainError(f"the vector bound requires rho > 0, got {rho}")
    threshold = vec_admissibility_threshold(r, delta_prime)
    if not rho > threshold:
        raise InadmissibleAlignmentError(rho, threshold)

    t_quant = student_t_quantile(r, 1.0 - delta_prime)
    K = math.sqrt(max(0.0, 1.0 - rho * rho) / r) * t_quant
    a_minus = rho - K
    a_plus = rho + K
    b = chi2_quantile(d + r - 1, 1.0 - delta_prime)
    eps = 0.5 * (d - r + 1) * math.log(a_plus) + (1.0 - rho + K) * b / (2.0 * (rho - K))

    if rho == 1.0:
        ds_est, ds_se = 0.0, 0.0
    else:
        ds_est, ds_se = profiler.delta_support(rho, r, support_samples, seed)
    delta_raw = ds_est + 3.0 * delta_prime
    return VecAccountReport(
        K=K,
        a_minus=a_minus,
        a_plus=a_plus,
        b=b,
        delta_support=ds_est,
        delta_support_stderr=ds_se,
        eps_rho=eps,
        delta_rho=min(1.0, max(0.0, delta_raw)),
        delta_rho_unclamped=delta_raw,
    )


def gaussian_tradeoff(eps: float, mu: float) -> float:
    """Exact two-sided tail T(eps; mu) of the Gaussian privacy-loss variable.

    T(eps; mu) = Phi((-eps - mu/2)/sqrt(mu)) + 1 - Phi((eps - mu/2)/sqrt(mu)),
    with T(eps; 0) = 0 by convention (the loss is identically zero).
    """
    if not eps >= 0.0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if not mu >= 0.0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    root = math.sqrt(mu)
    # 1 - Phi(x) evaluated as Phi(-x) so deep tails are not absorbed by the 1.
    return normal_cdf((-eps - mu / 2.0) / root) + normal_cdf(-(eps - mu / 2.0) / root)


def delta_M_bound(s: int, alpha: float, r: int, d: int) -> float:
    """Union bound on the capture event: P(capture > alpha) <= s (1 - I_alpha(r/2, (d-r)/2))."""
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1 <= r <= d - 1:
        raise DomainError(f"delta_M_bound requires 1 <= r <= d-1, got r={r}, d={d}")
    return min(1.0, s * reg_inc_betac(alpha, r / 2.0, (d - r) / 2.0))


def beta_tail_bound(eta: float, r: int) -> float:
    """Chernoff-style bound 2 exp(-eta^2 r / 72) on the Beta capture tail at alpha=(1+eta)r/d."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return min(1.0, 2.0 * math.exp(-eta * eta * r / 72.0))


@dataclass(frozen=True)
class SmallRReport:
    """What the small-rank bound computed: the captured sensitivity mu_bar, the
    trade-off and capture terms, and their sum, clamped and unclamped."""

    mu_bar: float
    delta_E: float
    delta_M: float
    delta_total: float
    delta_total_unclamped: float


def account_small_r(
    eps: float, sens_frob: float, s: int, d: int, r: int, sigma: float, alpha: float
) -> SmallRReport:
    """Small-rank bound: delta = T(eps; alpha ||dV||_F^2 / sigma^2) + delta_M."""
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    if not sens_frob >= 0.0:
        raise DomainError(f"sens_frob must be >= 0, got {sens_frob}")
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    mu_bar = alpha * (sens_frob / sigma) * (sens_frob / sigma)  # sigma * sigma may underflow
    if not math.isfinite(mu_bar):
        raise DomainError(f"mu_bar = alpha sens_frob^2 / sigma^2 must be finite, got {mu_bar}")
    # T(eps; mu) is nondecreasing in mu, so its value at mu_bar covers every
    # captured sensitivity up to alpha ||dV||_F^2.
    delta_E = gaussian_tradeoff(eps, mu_bar)
    if alpha == 1.0:
        delta_M = 0.0
    else:
        delta_M = delta_M_bound(s, alpha, r, d)
    raw = delta_E + delta_M
    return SmallRReport(
        mu_bar=mu_bar,
        delta_E=delta_E,
        delta_M=delta_M,
        delta_total=min(1.0, raw),
        delta_total_unclamped=raw,
    )


def _bisect_alpha0(eps: float, mu: float, target: float) -> float:
    # T(eps; a*mu) = target has a root in (0, 1) because T is continuous,
    # increasing, 0 at a=0 and delta_Gauss at a=1 > target.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_tradeoff(eps, mid * mu) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def choose_alpha(
    eps: float, mu: float, s: int, d: int, r: int, eta: float
) -> tuple[float, SmallRReport]:
    """Pick alpha = (1 + eta) r / d and certify improvement over the Gaussian baseline.

    Succeeds when both halves of the budget hold at alpha:
      lower condition: s (1 - I_alpha(r/2, (d-r)/2)) <= delta_Gauss / 2,
      upper condition: alpha <= alpha0 where T(eps; alpha0 mu) = delta_Gauss / 2.
    The exact Beta survival is used for the lower condition; its Chernoff
    surrogate 2 s exp(-eta^2 r / 72) <= delta_Gauss / 2 (threshold
    r >= (72/eta^2) ln(4 s / delta_Gauss)) is reported in errors as the
    analytic guide but is too loose to gate on.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    if not mu > 0.0:
        raise DomainError(f"mu must be > 0, got {mu}")
    if r < 1 or d < 2:
        raise DomainError(f"need r >= 1 and d >= 2, got r={r}, d={d}")
    if r > d / 2:
        raise PreconditionError(f"choose_alpha requires r <= d/2, got r={r}, d={d}")
    delta_gauss = gaussian_tradeoff(eps, mu)
    if delta_gauss <= 0.0:
        raise DomainError(f"Gaussian baseline delta is 0 at eps={eps}, mu={mu}; nothing to improve")
    half = delta_gauss / 2.0

    alpha = (1.0 + eta) * r / d

    def beta_half(rank: int) -> float:
        a = (1.0 + eta) * rank / d
        if a >= 1.0:
            return float(s)
        return s * reg_inc_betac(a, rank / 2.0, (d - rank) / 2.0)

    if beta_half(r) > half:
        chernoff_r = math.ceil(72.0 / (eta * eta) * math.log(4.0 * s / delta_gauss))
        r_min = None
        for candidate in range(r + 1, int(d // 2) + 1):
            if beta_half(candidate) <= half:
                r_min = candidate
                break
        raise RegimeError(
            condition="lower",
            r=r,
            r_bound=r_min,
            detail=(
                f"rank r={r} is too small: the capture-tail term "
                f"{beta_half(r):.4g} exceeds delta_Gauss/2 = {half:.4g}; "
                f"minimal admissible r is {r_min if r_min is not None else '> d/2'} "
                f"(Chernoff guide: r >= {chernoff_r})"
            ),
        )

    alpha0 = _bisect_alpha0(eps, mu, half)
    if alpha > alpha0:
        r_max = math.floor(alpha0 * d / (1.0 + eta))
        raise RegimeError(
            condition="upper",
            r=r,
            r_bound=r_max,
            detail=(
                f"rank r={r} is too large: alpha=(1+eta)r/d = {alpha:.4g} exceeds "
                f"alpha0 = {alpha0:.4g}; maximal admissible r is {r_max}"
            ),
        )

    report = account_small_r(
        eps=eps, sens_frob=math.sqrt(mu), s=s, d=d, r=r, sigma=1.0, alpha=alpha
    )
    assert report.delta_total < delta_gauss, "choose_alpha postcondition violated"
    return alpha, report


@dataclass(frozen=True)
class LargeRReport:
    """What the large-rank bound computed: the operator-bound terms, the
    parallel and residual blocks, and their totals with delta unclamped."""

    g_beta: float
    Gamma_beta: float
    eps_par: float
    eps_perp: float
    delta_perp: float
    eps_total: float
    delta_total: float
    delta_total_unclamped: float


def account_large_r(
    d: int,
    r: int,
    s: int,
    p: int,
    delta_v: float,
    sigma_G: float,
    sigma_M: float,
    beta: float,
    delta_par: float,
    rho_perp: float,
    delta_prime_perp: float,
    seed: Seed = Seed(0),
    support_samples: int = DEFAULT_SUPPORT_SAMPLES,
) -> LargeRReport:
    """Large-rank bound: parallel Gaussian block plus residual vector block.

    The residual alignment rho_perp (alignment of the conditioning-orthogonal
    components across neighbors) is a caller obligation; it has no closed form
    here and must reflect the declared neighbor pairs.
    """
    if s < 0 or p < 0:
        raise DomainError(f"s and p must be >= 0, got s={s}, p={p}")
    if p > min(s, r):
        raise DomainError(f"need p <= min(s, r), got p={p}, s={s}, r={r}")
    if r <= p:
        raise DegenerateInputError(
            f"degenerate residual: r={r} <= p={p} leaves no residual randomness"
        )
    if d <= s:
        raise DomainError(f"need d > s, got d={d}, s={s}")
    if not 0.0 <= delta_v < math.inf:
        raise DomainError(f"delta_v must be finite and >= 0, got {delta_v}")
    if not 0.0 < sigma_G < math.inf or not 0.0 < sigma_M < math.inf:
        raise DomainError(f"sigma_G and sigma_M must be finite and > 0, got {sigma_G}, {sigma_M}")
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < delta_par < 1.0:
        raise DomainError(f"delta_par must lie in (0, 1), got {delta_par}")

    g_beta = math.sqrt(2.0 * math.log(2.0 / beta))
    gamma_beta = sigma_M * sigma_M * (math.sqrt(d) + math.sqrt(p) + g_beta) * (math.sqrt(p) + g_beta)
    if delta_v == 0.0:
        eps_par = 0.0
    else:
        eps_par = gamma_beta * delta_v / sigma_G * math.sqrt(2.0 * math.log(1.25 / delta_par))

    residual = account_vec(
        AlignmentSpec(rho=rho_perp, d=d - s, r=r - p),
        delta_prime_perp,
        seed=seed,
        support_samples=support_samples,
    )
    eps_total = eps_par + residual.eps_rho
    delta_raw = delta_par + residual.delta_rho + beta
    return LargeRReport(
        g_beta=g_beta,
        Gamma_beta=gamma_beta,
        eps_par=eps_par,
        eps_perp=residual.eps_rho,
        delta_perp=residual.delta_rho,
        eps_total=eps_total,
        delta_total=min(1.0, delta_raw),
        delta_total_unclamped=delta_raw,
    )


def compose_basic(budgets, k: int | None = None) -> tuple[float, float]:
    """Basic composition: budgets add up; (eps, delta) x k gives (k eps, k delta)."""
    budgets = [(float(e), float(dl)) for e, dl in budgets]
    if not budgets:
        raise DegenerateInputError("compose_basic: empty budget list")
    # +inf eps is an unbounded step (a noise-free DP-LoRA run); NaN fails both tests
    if not all(e >= 0.0 and dl >= 0.0 for e, dl in budgets):
        raise DomainError(f"compose_basic: budgets need eps >= 0 and delta >= 0, got {budgets}")
    if k is not None:
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if len(budgets) != 1:
            raise DomainError("k is only meaningful with a single budget")
        e, dl = budgets[0]
        return k * e, k * dl
    return sum(e for e, _ in budgets), sum(dl for _, dl in budgets)


def compose_gaussian_steps(mu_list, eps: float, per_step_delta_p: float) -> float:
    """Compose conditionally Gaussian steps exactly: T(eps; sum mu_t) + T steps * delta_p.

    Gaussian privacy losses add across independent steps, so the trade-off of
    the composition is the trade-off at the summed mu; each step contributes
    its capture-failure probability through a union bound.
    """
    mu_list = [float(m) for m in mu_list]
    if not all(m >= 0.0 for m in mu_list):
        raise DomainError("all mu_t must be >= 0")
    if not per_step_delta_p >= 0.0:
        raise DomainError(f"per_step_delta_p must be >= 0, got {per_step_delta_p}")
    total = gaussian_tradeoff(eps, sum(mu_list)) + len(mu_list) * per_step_delta_p
    return min(1.0, total)


@dataclass(frozen=True)
class JlZeta:
    """Norm-distortion factor of the rank-r Gaussian sketch, with vacuity flag."""

    zeta: float
    vacuous: bool


def jl_clip_zeta(n: int, r: int, delta_jl: float) -> JlZeta:
    """zeta = sqrt(12 ln(2n/delta_JL) / r); zeta >= 1 makes the bound vacuous."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if not 0.0 < delta_jl < 1.0:
        raise DomainError(f"delta_jl must lie in (0, 1), got {delta_jl}")
    zeta = math.sqrt(12.0 * math.log(2.0 * n / delta_jl) / r)
    vacuous = zeta >= 1.0
    if vacuous:
        warnings.warn(
            f"JL distortion zeta={zeta:.4g} >= 1: the norm-preservation bound is vacuous",
            VacuousBoundWarning,
            stacklevel=2,
        )
    return JlZeta(zeta=zeta, vacuous=vacuous)
