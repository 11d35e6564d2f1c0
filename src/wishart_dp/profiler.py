"""Monte Carlo estimation of the exact privacy profile of the vector mechanism.

The projected output of a unit-norm vector query admits a closed-form log
density on the half space where the projection of the output onto the query
direction is positive. The privacy-loss variable between two neighbor
directions at cosine rho reduces to a two-dimensional statistic (A, B):

    A  relative alignment of the output with the neighbor direction,
    B  magnitude of the output relative to its aligned component,

which have the exact joint representation

    A = rho + sqrt(1 - rho^2) * K2 / sqrt(K1),   B = K1 + K2^2 + K3,

with independent K1 ~ chi2_r, K2 ~ N(0, 1), K3 ~ chi2_{d-2}. The loss is

    L = ((d - r + 1) / 2) ln A + (B / 2) (1/A - 1),

with A <= 0 mapped to +inf (the output escapes the neighbor law's support).
delta(eps) is estimated on an eps grid as the fraction of draws with L > eps
in one sampling pass. A draw with A <= 0 has L = +inf, so the
support-failure mass P(A <= 0) is counted once, in every tail, and needs no
separate estimate. Both chi-square variables come from numpy's gamma-based
sampler, which is exact in distribution at every dof. Tail counts on a sorted
grid are nonincreasing, so the estimated profile is nonincreasing in eps
without any correction.

Sampling is chunked over the substreams seed.child(0), seed.child(1), ..., so
estimates do not depend on the worker count used to evaluate them.
delta_support, a Monte Carlo estimate of P(A <= 0) alone, serves the vector
accountants; the profile does not call it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, OutsideSupportError
from .randmat import Seed
from .specialfn import log_gamma

_CHUNK = 1 << 17


@dataclass(frozen=True)
class RatioSample:
    """One draw of the alignment/magnitude pair (A, B); B is always >= 0."""

    A: float
    B: float


def _check_ratio_args(rho: float, d: int, r: int) -> None:
    if d < 3:
        raise DomainError(f"ratio statistics need d >= 3 (the residual block has d-2 dof), got d={d}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")


def sample_ratio_arrays(
    rho: float, d: int, r: int, n: int, seed: Seed
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of the ratio statistics (A, B) as two arrays."""
    _check_ratio_args(rho, d, r)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = seed.generator()
    k1 = rng.chisquare(r, n)
    k2 = rng.standard_normal(n)
    k3 = rng.chisquare(d - 2, n)
    A = rho + math.sqrt(max(0.0, 1.0 - rho * rho)) * k2 / np.sqrt(k1)
    B = k1 + k2 * k2 + k3
    return A, B


def privacy_loss(sample: RatioSample, d: int, r: int) -> float:
    """Log density ratio at one (A, B) draw; +inf when A <= 0."""
    if math.isnan(sample.A) or not math.isfinite(sample.B):
        raise DomainError(f"need a non-NaN A and a finite B, got {sample}")
    if sample.A <= 0.0:
        return math.inf
    return 0.5 * (d - r + 1) * math.log(sample.A) + 0.5 * sample.B * (1.0 / sample.A - 1.0)


def privacy_loss_array(A: np.ndarray, B: np.ndarray, d: int, r: int) -> np.ndarray:
    out = np.full(A.shape, np.inf)
    ok = A > 0.0
    a = A[ok]
    out[ok] = 0.5 * (d - r + 1) * np.log(a) + 0.5 * B[ok] * (1.0 / a - 1.0)
    return out


def _chunk_seeds(seed: Seed, n: int) -> list[tuple[Seed, int]]:
    """(seed.child(i), size) for the i-th chunk of at most _CHUNK draws."""
    return [(seed.child(i), min(_CHUNK, n - start)) for i, start in enumerate(range(0, n, _CHUNK))]


def _map_chunks(fn, chunks, threads: int):
    """fn over the chunks on at most min(threads, CPUs, chunks) worker threads."""
    workers = min(threads, os.cpu_count() or 1, len(chunks))
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def delta_support(rho: float, r: int, n: int, seed: Seed) -> tuple[float, float]:
    """Monte Carlo mean of Phi(-rho sqrt(X) / sqrt(1 - rho^2)) over X ~ chi2_r."""
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"delta_support requires rho in (0, 1], got {rho}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if rho == 1.0:
        return 0.0, 0.0
    scale = rho / math.sqrt(1.0 - rho * rho)
    s1 = s2 = 0.0
    for chunk_seed, size in _chunk_seeds(seed, n):
        vals = ndtr(-scale * np.sqrt(chunk_seed.generator().chisquare(r, size)))
        s1 += float(np.sum(vals))
        s2 += float(np.sum(vals * vals))
    mean = s1 / n
    var = max(0.0, s2 / n - mean * mean)
    return mean, math.sqrt(var / n)


@dataclass(eq=False)
class PrivacyProfile:
    """Grid of (eps, delta_hat, stderr) estimates of the exact trade-off."""

    rho: float
    d: int
    r: int
    eps_grid: np.ndarray
    delta_hat: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: Seed

    def eps_at_delta(self, target_delta: float) -> float:
        """Smallest grid eps whose estimated delta is <= target_delta.

        A target below 1/n cannot be told apart from a tail with zero hits,
        so it is rejected rather than answered from an empty tail.
        """
        if not target_delta * self.n_samples >= 1.0:
            raise DomainError(
                f"target delta {target_delta} is below the resolution 1/n = "
                f"{1.0 / self.n_samples:.3g} of a {self.n_samples}-sample profile"
            )
        hits = np.flatnonzero(self.delta_hat <= target_delta)
        if hits.size == 0:
            raise DomainError(
                f"no grid point reaches delta <= {target_delta}; extend the eps grid "
                f"(largest grid delta_hat is {self.delta_hat[-1]:.4g})"
            )
        return float(self.eps_grid[hits[0]])


def mc_privacy_profile(
    rho: float,
    d: int,
    r: int,
    eps_grid,
    n: int,
    seed: Seed,
    threads: int = 1,
) -> PrivacyProfile:
    """Estimate delta(eps) = P(L > eps) on an increasing eps grid in one pass.

    Draws with A <= 0 have L = +inf and so fall in every tail: the
    support-failure mass is counted once, through the loss itself. The
    stderr is the binomial sqrt(p (1 - p) / n).
    """
    _check_ratio_args(rho, d, r)
    if not rho > 0.0:
        raise DomainError(f"the profile is defined for rho in (0, 1], got {rho}")
    eps = np.asarray(sorted(float(e) for e in eps_grid), dtype=float)
    if eps.size == 0:
        raise DomainError("eps_grid must be nonempty")
    if np.isnan(eps).any():
        raise DomainError("eps_grid must not contain NaN")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")

    def one_chunk(item):
        chunk_seed, size = item
        A, B = sample_ratio_arrays(rho, d, r, size, chunk_seed)
        losses = np.sort(privacy_loss_array(A, B, d, r))
        # count of losses strictly above each grid eps
        return size - np.searchsorted(losses, eps, side="right")

    delta_hat = sum(_map_chunks(one_chunk, _chunk_seeds(seed, n), threads)) / n
    return PrivacyProfile(
        rho=rho,
        d=d,
        r=r,
        eps_grid=eps,
        delta_hat=delta_hat,
        stderr=np.sqrt(delta_hat * (1.0 - delta_hat) / n),
        n_samples=n,
        seed=seed,
    )


def ratio_from_point(y: np.ndarray, v: np.ndarray, v_prime: np.ndarray, r: int) -> RatioSample:
    """Build the (A, B) statistic of a concrete output y for directions (v, v')."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    if not (np.isfinite(y).all() and np.isfinite(v).all() and np.isfinite(v_prime).all()):
        raise DomainError("y, v and v' must be finite")
    vy = float(v @ y)
    if vy <= 0.0:
        raise DomainError("ratio_from_point requires v^T y > 0")
    return RatioSample(A=float(v_prime @ y) / vy, B=r * float(y @ y) / vy)


def log_density_mv(y: np.ndarray, v: np.ndarray, r: int, sigma2: float) -> float:
    """Log density of the projected output M v at y, for M built from r Gaussian
    columns of per-entry variance sigma2; defined on the half space v^T y > 0.

    The normalizer uses sigma^(d + r - 1); the exponent printed alongside the
    density in the source derivation is dimensionally inconsistent and fails a
    direct quadrature check, while this one integrates to 1 and satisfies the
    scale covariance p_{sigma^2}(y) = c^-d p_{sigma^2 / c}(y / c).
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if y.shape != v.shape or y.ndim != 1:
        raise DomainError("y and v must be vectors of the same dimension")
    if not (np.isfinite(y).all() and np.isfinite(v).all()):
        raise DomainError("y and v must be finite")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if not sigma2 > 0.0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    d = y.shape[0]
    vy = float(v @ y)
    if vy <= 0.0:
        raise OutsideSupportError(f"log_density_mv: v^T y = {vy:.6g} <= 0 is outside the support")
    sigma = math.sqrt(sigma2)
    log_norm = -(
        0.5 * r * math.log(2.0)
        + log_gamma(r / 2.0)
        + (d + r - 1) * math.log(sigma)
        + 0.5 * (d - 1) * math.log(2.0 * math.pi)
    )
    return log_norm + 0.5 * (r - d - 1) * math.log(vy) - float(y @ y) / (2.0 * sigma2 * vy)
