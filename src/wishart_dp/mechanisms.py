"""The randomized maps: noise-free projection, noisy variants, Gaussian baseline.

project(V, draw) is the noise-free map M V. noisy_mech covers the two noisy
variants, which share one Wishart factor M = Z Z^T and one Gaussian noise
block Xi with i.i.d. N(0, sigma_G^2) columns:

    M1(V) = M V + Xi          (noise added after projection)
    M2(V) = M (V + Xi)        (noise added before projection)

Both take V as a d x n array (a d-vector is one column). Clipping, when
requested, rescales V to Frobenius norm at most clip_beta before anything is
sampled. noisy_mech is the one sampling kernel, which the noisy-projection
training step calls too. It samples M U, with U = V + Xi for M2 and U = V for
M1, along one of two paths chosen from (d, r, n) alone:

* direct: Z (d x r), then Xi, from one generator; M U = Z (Z^T U). This
  draws d (r + n) normals.
* sketch: Xi, then G (n x r, entries N(0, 1/r)), then N (d x n, standard
  normal); n (2 d + r) normals. With U = Q R a Householder QR, M U =
  Z (Z^T Q) R. Gaussian matrices are rotation invariant (Muirhead 1982), so
  G has the law of Q^T Z, and Z G^T = Q W + (I - Q Q^T) Z G^T with W = G G^T,
  where (I - Q Q^T) Z is independent of G. Given G, the rows of Z G^T and of
  H = N chol(W / r)^T are i.i.d. N(0, W / r), so
  M U = (Q (W - Q^T H) + H) R has the direct path's law. Householder QR
  stays exact for a rank-deficient U (M1), where a Cholesky of U^T U would
  square U's condition number.

The sketch is taken when it saves more than SKETCH_OVERHEAD normals,
d r - n (d + r) > SKETCH_OVERHEAD, which needs n < min(d, r); a given draw
always takes the direct path. Only the direct path draws Z, so a caller can
rebuild M from the seed there and nowhere else. M is never formed as a d x d
matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError
from .randmat import Seed, WishartDraw, wishart_factor


# Normals' worth of time that the sketch's extra linear algebra costs: the
# Householder QR of the d x n input, the n x n Cholesky and three small
# products. Fitted to one M2 draw at d = 128, n = 10 on a 2-vCPU x86 host,
# where a normal costs about 15 ns and the paths break even between r = 32
# (2496 normals saved) and r = 36 (2968). The cost grows with d n: at
# n = 1 the break-even is nearer 1700 normals, at d = 256, n = 10 nearer 3700.
SKETCH_OVERHEAD = 2500


class Variant(enum.Enum):
    M1 = "m1"
    M2 = "m2"


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
    V, params: NoisyMechParams, seed: Seed, draw: WishartDraw | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply the configured variant, sampling from seed's stream (see the module docstring).

    Passing a pre-drawn ``draw`` fixes M and uses the seed for Xi only. A
    given ``rng``, a generator of any seed, is reset to seed's stream
    (Seed.reset) and drawn from in place of a new generator, with the same
    draws. The noisy-projection training step applies M2 to V = G^T, the
    transposed weight gradient, with clip_beta set to its clipping threshold.
    """
    V = _as_matrix(V)
    if params.clip_beta is not None:
        V = clip_frobenius(V, params.clip_beta)
    else:
        _check_finite(V)
    d, n = V.shape
    r, m1 = params.r, params.variant is Variant.M1
    Z = None if draw is None else draw.Z
    if Z is not None and Z.shape[0] != d:
        raise DomainError(f"dimension mismatch: draw has d={Z.shape[0]}, input has d={d}")
    rng = seed.generator() if rng is None else seed.reset(rng)
    # an empty query has nothing to sketch; any other that saves normals has n < r
    if Z is None and (n == 0 or d * r - n * (d + r) <= SKETCH_OVERHEAD):
        Z = wishart_factor(rng, d, r)
    xi = rng.standard_normal((d, n)) * params.sigma_G
    U = V if m1 else V + xi
    if Z is not None:
        out = Z @ (Z.T @ U)
    else:
        G = wishart_factor(rng, n, r)
        W = G @ G.T
        H = rng.standard_normal((d, n)) @ np.linalg.cholesky(W / r).T
        Q, R = np.linalg.qr(U)
        out = (Q @ (W - Q.T @ H) + H) @ R
    return out + xi if m1 else out


def gaussian_mech(v: np.ndarray, sigma: float, seed: Seed) -> np.ndarray:
    """Additive Gaussian baseline v + N(0, sigma^2 I)."""
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise DomainError("gaussian_mech: v must be finite")
    rng = seed.generator()
    return v + sigma * rng.standard_normal(v.shape)


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
