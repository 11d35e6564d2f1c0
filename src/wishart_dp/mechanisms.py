"""The randomized maps: noise-free projection, noisy variants, Gaussian baseline.

project(V, draw) is the noise-free map M V. noisy_mech covers the two noisy
variants, which share one Wishart factor M = Z Z^T and one Gaussian noise
block Xi with i.i.d. N(0, sigma_G^2) columns:

    M1(V) = M V + Xi          (noise added after projection)
    M2(V) = M (V + Xi)        (noise added before projection)

Both take V as a d x n array (a d-vector is one column). Draw order under a
single seed is fixed (Z first, then Xi, from one generator) so that callers
which replay the same seed reconstruct both blocks bit for bit. M is applied
as Z (Z^T .), never formed as a d x d matrix. Clipping, when requested,
rescales V to Frobenius norm at most clip_beta before anything is sampled.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OutOfStatedRangeWarning, PreconditionError
from .randmat import Seed, WishartDraw, wishart_factor


class Variant(enum.Enum):
    M1 = "m1"
    M2 = "m2"


class SigmaConvention(enum.Enum):
    """Constant in the Gaussian-mechanism noise formula.

    LEMMA uses sigma = 2 * Delta * sqrt(ln(1.25/delta)) / eps; ALGORITHM uses
    the more conservative 2 * Delta * sqrt(2 ln(1.25/delta)) / eps that the
    private low-rank training loop calibrates with. Both constants circulate
    for this mechanism, so both are supported and tested.
    """

    LEMMA = "lemma"
    ALGORITHM = "algorithm"


def _as_matrix(V) -> np.ndarray:
    """Query output as a d x n float array; vector queries become n = 1."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2:
        raise DomainError(f"mechanism input must be a d x n matrix, got ndim={V.ndim}")
    return V


def _check_finite(V: np.ndarray) -> None:
    if not np.isfinite(V).all():
        raise DomainError("mechanism input must be finite")


@dataclass(frozen=True)
class NoisyMechParams:
    variant: Variant
    r: int
    sigma_G: float
    clip_beta: float | None = None

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"rank r must be >= 1, got {self.r}")
        if not 0.0 < self.sigma_G < math.inf:
            raise ConfigError(
                f"variant {self.variant.name} requires a finite sigma_G > 0, got {self.sigma_G}"
            )
        if self.clip_beta is not None and not self.clip_beta > 0.0:
            raise DomainError(f"clip_beta must be > 0, got {self.clip_beta}")


def clip_frobenius(X: np.ndarray, beta: float) -> np.ndarray:
    """Rescale X to Frobenius norm at most beta: X * min(1, beta / ||X||_F)."""
    if not beta > 0.0:
        raise DomainError(f"clipping threshold must be > 0, got {beta}")
    norm = float(np.linalg.norm(X))
    if not math.isfinite(norm):
        raise DomainError(f"cannot clip a matrix of Frobenius norm {norm}")
    if norm <= beta:
        return X
    return X * (beta / norm)


def project(V, draw: WishartDraw) -> np.ndarray:
    """Noise-free projection M V."""
    V = _as_matrix(V)
    _check_finite(V)
    if draw.Z.shape[0] != V.shape[0]:
        raise DomainError(
            f"dimension mismatch: draw has d={draw.Z.shape[0]}, input has d={V.shape[0]}"
        )
    return draw.M @ V


def noisy_mech(
    V, params: NoisyMechParams, seed: Seed, draw: WishartDraw | None = None
) -> np.ndarray:
    """Apply the configured variant; Z then Xi are drawn from the seed in that order.

    Passing a pre-drawn ``draw`` fixes M and uses the seed for Xi only. The
    noisy-projection training step applies M2 to V = G^T, the transposed
    weight gradient, with clip_beta set to its clipping threshold.
    """
    V = _as_matrix(V)
    if params.clip_beta is not None:
        V = clip_frobenius(V, params.clip_beta)
    else:
        _check_finite(V)
    d, n = V.shape
    rng = seed.generator()
    if draw is None:
        Z = wishart_factor(rng, d, params.r)
    elif draw.Z.shape[0] != d:
        raise DomainError(f"dimension mismatch: draw has d={draw.Z.shape[0]}, input has d={d}")
    else:
        Z = draw.Z
    xi = rng.standard_normal((d, n)) * params.sigma_G
    if params.variant is Variant.M1:
        return Z @ (Z.T @ V) + xi
    return Z @ (Z.T @ (V + xi))


def gaussian_mech(v: np.ndarray, sigma: float, seed: Seed) -> np.ndarray:
    """Additive Gaussian baseline v + N(0, sigma^2 I)."""
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise DomainError("gaussian_mech: v must be finite")
    rng = seed.generator()
    return v + sigma * rng.standard_normal(v.shape)


def gaussian_sigma(
    delta_sens: float,
    eps: float,
    delta: float,
    convention: SigmaConvention = SigmaConvention.ALGORITHM,
) -> float:
    """Noise scale calibrating a Gaussian mechanism of sensitivity delta_sens."""
    if not 0.0 < delta_sens < math.inf:
        raise DomainError(f"sensitivity must be finite and > 0, got {delta_sens}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if eps >= 1.0:
        warnings.warn(
            f"gaussian_sigma: closed form is stated for eps < 1, got eps={eps}; "
            "value computed anyway",
            OutOfStatedRangeWarning,
            stacklevel=2,
        )
    log_term = math.log(1.25 / delta)
    if convention is SigmaConvention.ALGORITHM:
        log_term *= 2.0
    return 2.0 * delta_sens * math.sqrt(log_term) / eps


def amplify_alignment(v: np.ndarray, gamma: float, seed: Seed) -> np.ndarray:
    """Return v + gamma * z/||z|| with z ~ N(0, I); output is NOT renormalized.

    Consumers that feed the declared alignment of amplified vectors into an
    accountant must renormalize explicitly, since the guarantee is stated for
    the angle of the un-normalized sums.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-8:
        raise DomainError(f"amplify_alignment expects a unit vector, got norm {norm}")
    if gamma == 0.0:
        return v.copy()
    z = seed.generator().standard_normal(v.shape)
    return v + gamma * z / float(np.linalg.norm(z))


def amplification_threshold(rho: float, d: int, delta: float) -> float:
    """Smallest gamma the alignment-gain guarantee is stated for."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not -1.0 < rho <= 1.0:
        raise DomainError(f"rho must lie in (-1, 1], got {rho}")
    c = math.sqrt((2.0 / d) * math.log(8.0 / delta))
    return (1.0 - rho) / (1.0 + rho) * c


def amplification_gain(rho: float, gamma: float, d: int, delta: float) -> float:
    """Guaranteed alignment gain s for shared-noise pairs at cosine >= rho.

    s = ((1-rho) gamma^2 - 4 gamma c) / (1 + gamma^2 + 2 gamma c) with
    c = sqrt((2/d) ln(8/delta)); requires gamma above the stated threshold and
    additionally large enough that s > 0 (at rho = 1 no gain is possible).
    """
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    thr = amplification_threshold(rho, d, delta)
    if not gamma > thr:
        raise PreconditionError(
            f"gamma={gamma:.6g} is at or below the stated threshold {thr:.6g} "
            f"for rho={rho}, d={d}, delta={delta}"
        )
    c = math.sqrt((2.0 / d) * math.log(8.0 / delta))
    numer = (1.0 - rho) * gamma * gamma - 4.0 * gamma * c
    denom = 1.0 + gamma * gamma + 2.0 * gamma * c
    s = numer / denom
    if s <= 0.0:
        effective = math.inf if rho >= 1.0 else 4.0 * c / (1.0 - rho)
        raise PreconditionError(
            f"no positive gain at gamma={gamma:.6g}: the gain numerator needs "
            f"gamma > {effective:.6g} for rho={rho}, d={d}, delta={delta}"
        )
    return s
