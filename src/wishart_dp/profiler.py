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
separate estimate. Both chi-square variables are drawn as 2 * standard_gamma(k/2),
which is numpy's own definition of chisquare (the same stream, bit for bit)
and exact in distribution at every dof. Tail counts on a sorted grid are
nonincreasing, so the estimated profile is nonincreasing in eps without any
correction.

Sampling is chunked over the substreams seed.child(0), seed.child(1), ..., so
estimates do not depend on the worker count used to evaluate them. Each
worker allocates its chunk buffers once per call: every chunk draws into
them, builds B, A and then L in place, and sorts L in place before counting
the tails. sample_ratio_arrays and privacy_loss_array, the loss at given
(A, B) arrays, are allocating wrappers over the same in-place helpers;
ratio_from_point builds the (A, B) pair of one concrete output.
delta_support, a Monte Carlo estimate of P(A <= 0) alone, serves the vector
accountants; the profile does not call it. It averages
Phi(-scale sqrt(X)) over X ~ chi2_r, and Phi is exactly +0.0 in double
precision below _PHI_ZERO, which at large rho and r holds for nearly every
draw. So Phi is evaluated only on the draws with X < (_PHI_ZERO / scale)^2,
scattered into an otherwise zero chunk buffer, and the sums run over the
whole buffer: the result equals the plain mean over every draw bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, OutsideSupportError
from .randmat import Seed
from .specialfn import log_gamma

_CHUNK = 1 << 17
# Phi(-39) is about 1.4e-333, below half the smallest subnormal (2.5e-324), so
# any correctly rounded Phi returns +0.0 at and below it; scipy's ndtr does so
# from -37.68 on.
_PHI_ZERO = -39.0


def _check_ratio_args(rho: float, d: int, r: int) -> None:
    if d < 3:
        raise DomainError(f"ratio statistics need d >= 3 (the residual block has d-2 dof), got d={d}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")


def _draw_ratio(
    rng: np.random.Generator, rho: float, d: int, r: int, x: np.ndarray, A: np.ndarray, B: np.ndarray
) -> None:
    """Fill A and B with draws of (A, B); x is scratch of the same size.

    Consumes the stream as chisquare(r), standard_normal, chisquare(d - 2) of
    the block size, and rounds every operation as the textbook expressions do.
    """
    rng.standard_gamma(0.5 * r, out=x)
    x *= 2.0  # K1 ~ chi2_r
    rng.standard_normal(out=A)  # K2
    np.multiply(A, A, out=B)
    B += x  # K1 + K2^2
    np.sqrt(x, out=x)
    A *= math.sqrt(max(0.0, 1.0 - rho * rho))
    A /= x
    A += rho
    rng.standard_gamma(0.5 * (d - 2), out=x)
    x *= 2.0  # K3 ~ chi2_{d-2}
    B += x


def _loss_into(L: np.ndarray, A: np.ndarray, B: np.ndarray, d: int, r: int, ok: np.ndarray) -> None:
    """Write the loss at (A, B) into L; A, B and the boolean scratch ok are overwritten."""
    np.greater(A, 0.0, out=ok)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.log(A, out=L)
        L *= 0.5 * (d - r + 1)
        np.divide(1.0, A, out=A)
        A -= 1.0
        B *= 0.5
        B *= A
        L += B
    np.logical_not(ok, out=ok)
    np.copyto(L, np.inf, where=ok)


def sample_ratio_arrays(
    rho: float, d: int, r: int, n: int, seed: Seed
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of the ratio statistics (A, B) as two arrays."""
    _check_ratio_args(rho, d, r)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    A, B = np.empty(n), np.empty(n)
    _draw_ratio(seed.generator(), rho, d, r, np.empty(n), A, B)
    return A, B


def privacy_loss_array(A, B, d: int, r: int) -> np.ndarray:
    """The loss at each (A, B) pair; +inf where A <= 0. A and B are not modified."""
    A, B = np.array(A, dtype=float), np.array(B, dtype=float)
    if A.shape != B.shape:
        raise DomainError(f"A and B must have the same shape, got {A.shape} and {B.shape}")
    if np.isnan(A).any() or not np.isfinite(B).all():
        raise DomainError("need a non-NaN A and a finite B")
    # the B term is 0 where B = 0, even where 1 / A overflows and 0 * inf would be NaN
    flat = (B == 0.0) & (A > 0.0)
    L_flat = 0.5 * (d - r + 1) * np.log(A[flat])
    L = np.empty(A.shape)
    _loss_into(L, A, B, d, r, np.empty(A.shape, dtype=bool))
    L[flat] = L_flat
    return L


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
    """Monte Carlo mean of Phi(-rho sqrt(X) / sqrt(1 - rho^2)) over X ~ chi2_r.

    Chunk i draws X from seed.child(i) as numpy's chisquare does. Phi is
    evaluated only where X < (_PHI_ZERO / scale)^2 and is +0.0 elsewhere, so
    (mean, stderr) are bit-identical to the plain mean over every draw.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"delta_support requires rho in (0, 1], got {rho}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if rho == 1.0:
        return 0.0, 0.0
    scale = rho / math.sqrt(1.0 - rho * rho)
    # Phi(-scale sqrt(x)) is +0.0 from x_max on; a product, not ** 2, so that a
    # tiny scale gives x_max = inf (every draw live) rather than OverflowError
    x_edge = _PHI_ZERO / scale
    x_max = x_edge * x_edge
    rng = seed.generator()
    m = min(n, _CHUNK)
    # vals_buf is zero outside a chunk's live draws: set there, re-zeroed after the sums
    x_buf, vals_buf = np.empty(m), np.zeros(m)
    s1 = s2 = 0.0
    for chunk_seed, size in _chunk_seeds(seed, n):
        x, vals = x_buf[:size], vals_buf[:size]
        chunk_seed.reset(rng).standard_gamma(0.5 * r, out=x)
        x *= 2.0  # chisquare(r), bit for bit
        live = np.flatnonzero(x < x_max)
        if live.size == 0:
            continue  # every Phi is +0.0: both sums gain exactly 0.0
        # Gather and scatter, never ndtr(..., out=, where=): under scipy 1.17.1
        # that left 0.0 at a live entry, and erfc(..., where=) wrote into a
        # masked-out one.
        z = x[live]  # a copy, so its -scale sqrt is formed in place
        np.sqrt(z, out=z)
        z *= -scale
        vals[live] = ndtr(z, out=z)
        # both sums run over the whole chunk: pairwise summation of the live
        # entries alone would round differently
        s1 += float(np.sum(vals))
        s2 += float(np.sum(np.multiply(vals, vals, out=x)))
        vals[live] = 0.0
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

    worker = threading.local()  # chunk buffers, one set per worker thread

    def one_chunk(item):
        chunk_seed, size = item
        if not hasattr(worker, "buffers"):
            m = min(n, _CHUNK)
            worker.buffers = (np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=bool))
        L, A, B, ok = (buf[:size] for buf in worker.buffers)
        _draw_ratio(chunk_seed.generator(), rho, d, r, L, A, B)
        _loss_into(L, A, B, d, r, ok)
        L.sort()
        # count of losses strictly above each grid eps
        return size - np.searchsorted(L, eps, side="right")

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


def ratio_from_point(y: np.ndarray, v: np.ndarray, v_prime: np.ndarray, r: int) -> tuple[float, float]:
    """The (A, B) statistic of a concrete output y for directions (v, v')."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    if not (np.isfinite(y).all() and np.isfinite(v).all() and np.isfinite(v_prime).all()):
        raise DomainError("y, v and v' must be finite")
    vy = float(v @ y)
    if vy <= 0.0:
        raise DomainError("ratio_from_point requires v^T y > 0")
    return float(v_prime @ y) / vy, r * float(y @ y) / vy


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
