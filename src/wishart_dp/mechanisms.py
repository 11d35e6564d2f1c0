"""The randomized maps: noise-free projection, noisy variants, Gaussian baseline.

project(V, draw) is the noise-free map M V. noisy_mech samples the paper's two
noisy variants, which share one Wishart factor M = Z Z^T and one Gaussian noise
block Xi with i.i.d. N(0, sigma_G^2) columns:

    M1(V) = M V + Xi          (noise added after projection)
    M2(V) = M (V + Xi)        (noise added before projection)

Both take V as a d x n array (a d-vector is one column). Clipping, when
requested, rescales V to Frobenius norm at most clip_beta before the release.
A draw has two parts. The first does not depend on V: the normals, drawn from
the seed's stream, and what is factored from them alone. The second, the
release, is computed from V. A NoiseBlock holds the first part for a block of
seeds, one per step of trainer.noisy_proj, factored in batched calls, so that
the training loop pays per step only for the release; noisy_mech is the block
of one. numpy factors and multiplies a stack one matrix at a time, so a seed's
draw does not depend on the block it is drawn in, bit for bit.

There are three exact paths for M U, with U = V + Xi for M2 and U = V for M1;
each draws in the order listed:

* direct: Z (d x r), then Xi; M U = Z (Z^T U). d (r + n) normals.
* sketch: Xi, then G (n x r, entries N(0, 1/r)), then N (d x n, standard
  normal); n (2 d + r) normals. With U = Q R a Householder QR, M U =
  Z (Z^T Q) R. Gaussian matrices are rotation invariant (Muirhead 1982), so
  G has the law of Q^T Z, and Z G^T = Q W + (I - Q Q^T) Z G^T with W = G G^T,
  where (I - Q Q^T) Z is independent of G. Given G, the rows of Z G^T and of
  H = N chol(W / r)^T are i.i.d. N(0, W / r), so
  M U = (Q (W - Q^T H) + H) R has the direct path's law. Householder QR
  stays exact for a rank-deficient U (M1), where a Cholesky of U^T U would
  square U's condition number.
* fold, M2 only: Z (d x r), then E (r x n, standard normal); r (d + n)
  normals. Given Z, the columns of Z^T Xi are i.i.d. N(0, sigma_G^2 Z^T Z),
  the law of the columns of sigma_G L E with L = chol(Z^T Z), so
  M2(V) = Z (Z^T V + sigma_G L E) has the direct path's law.

The path depends on (variant, d, r, n) alone. Each path is charged its
normals, the sketch SKETCH_OVERHEAD more and the fold FOLD_OVERHEAD more for
their linear algebra, and the cheapest is taken; a tie goes to the first of
direct, sketch, fold. The fold needs 2 r <= d, where Z^T Z is well
conditioned. An empty query takes the direct path. Only the direct and fold
paths draw Z, so a caller can rebuild M from the seed there and nowhere else.
noisy_mech and NoiseBlock never form M as a d x d matrix (project does).
Where LAPACK rejects a Cholesky factor as not positive definite, a symmetric
square root from eigh, a factor of the same product, takes its place, so no
LinAlgError reaches a caller.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError
from .randmat import Seed, WishartDraw


# Normals' worth of time that the sketch's extra linear algebra costs: the
# Householder QR of the d x n input, the n x n Cholesky and three small
# products. Fitted to one M2 draw at d = 128, n = 10 on a 2-vCPU x86 host,
# where a normal costs about 15 ns and the paths break even between r = 32
# (2496 normals saved) and r = 36 (2968). The cost grows with d n: at
# n = 1 the break-even is nearer 1700 normals, at d = 256, n = 10 nearer 3700.
SKETCH_OVERHEAD = 2500
# The same for the fold: Z^T Z, its r x r Cholesky and L E, batched over a
# block of 16 steps. It grows with r: at d = 128, n = 10 on the same host,
# about 300 normals at r = 16 and 700 at r = 32, where the fold, the sketch
# and the direct path break even; at r = 64 it is near 2700.
FOLD_OVERHEAD = 700

DIRECT, SKETCH, FOLD = "direct", "sketch", "fold"


class Variant(enum.Enum):
    M1 = "m1"
    M2 = "m2"


def _as_matrix(V) -> np.ndarray:
    """Query output as a d x n float array; vector queries become n = 1."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2:
        raise DomainError(f"the query V must be a d x n matrix, got ndim={V.ndim}")
    return V


def _check_finite(V: np.ndarray) -> None:
    if not np.isfinite(V).all():
        raise DomainError("the query V must be finite")


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
        raise DomainError(f"the clipping threshold beta must be > 0, got {beta}")
    flat = np.asarray(X, dtype=float).ravel(order="K")
    norm = math.sqrt(flat.dot(flat))  # np.linalg.norm(X), bit for bit, with less overhead
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


def _path(variant: Variant, d: int, r: int, n: int) -> str:
    """The path of a draw: the cheapest in normals plus overhead."""
    if n == 0:
        return DIRECT
    cost = {DIRECT: d * (r + n), SKETCH: n * (2 * d + r) + SKETCH_OVERHEAD}
    if variant is Variant.M2 and 2 * r <= d:
        cost[FOLD] = r * (d + n) + FOLD_OVERHEAD
    return min(cost, key=cost.get)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Factors L L^T = A of a stack of symmetric positive semi-definite matrices.

    Each is the Cholesky factor, or, where LAPACK rejects the matrix as not
    positive definite (rounding at a numerically singular one), the
    symmetric square root Q sqrt(max(lambda, 0)) Q^T from eigh.
    """
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if A.ndim > 2:
            return np.stack([_cholesky(a) for a in A])
        lam, Q = np.linalg.eigh(A)
        return (Q * np.sqrt(np.maximum(lam, 0.0))) @ Q.T


class NoiseBlock:
    """The part of noisy_mech's draws that does not depend on V, for a block of seeds.

    Each seed's normals come from rng reset to that seed's stream
    (Seed.reset), in the order of the path that (variant, d, r, n) selects;
    the whole block is then scaled and factored in batched calls.
    release(b, V) applies seed b's draw to a d x n query V; path names the
    path taken.
    """

    def __init__(self, params: NoisyMechParams, d: int, n: int, seeds, rng: np.random.Generator):
        if d < 1 or n < 0:
            raise DomainError(f"a query must be d x n with d >= 1 and n >= 0, got {d} x {n}")
        r, sigma = params.r, params.sigma_G
        self.params, self.shape, self.size = params, (d, n), len(seeds)
        self.path = _path(params.variant, d, r, n)
        shapes = {DIRECT: [(d, r), (d, n)], SKETCH: [(d, n), (n, r), (d, n)], FOLD: [(d, r), (r, n)]}[self.path]
        buffers = [np.empty((self.size, *s)) for s in shapes]
        for b, seed in enumerate(seeds):
            seed.reset(rng)
            for buf in buffers:
                rng.standard_normal(out=buf[b])
        # the scaled products are those of wishart_factor and of a scaled draw, bit for bit
        scale = math.sqrt(1.0 / r)
        if self.path == FOLD:
            self.Z, E = buffers
            self.Z *= scale
            self.S = _cholesky(self.Z.transpose(0, 2, 1) @ self.Z) @ E
            self.S *= sigma
        elif self.path == SKETCH:
            self.xi, G, N = buffers
            self.xi *= sigma
            G *= scale
            self.W = G @ G.transpose(0, 2, 1)
            self.H = N @ _cholesky(self.W / r).transpose(0, 2, 1)
        else:
            self.Z, self.xi = buffers
            self.Z *= scale
            self.xi *= sigma

    def release(self, b: int, V) -> np.ndarray:
        """Seed b's draw of the configured variant at the d x n query V, clipped first if set."""
        V = _as_matrix(V)
        if V.shape != self.shape:
            raise DomainError(f"V must have the block's query shape {self.shape}, got {V.shape}")
        if not 0 <= b < self.size:
            raise DomainError(f"b must index one of the block's {self.size} draws, got {b}")
        params = self.params
        if params.clip_beta is not None:
            V = clip_frobenius(V, params.clip_beta)
        else:
            _check_finite(V)
        if self.path == FOLD:
            Z = self.Z[b]
            return Z @ (Z.T @ V + self.S[b])
        m1, xi = params.variant is Variant.M1, self.xi[b]
        U = V if m1 else V + xi
        if self.path == SKETCH:
            W, H = self.W[b], self.H[b]
            Q, R = np.linalg.qr(U)
            out = (Q @ (W - Q.T @ H) + H) @ R
        else:
            Z = self.Z[b]
            out = Z @ (Z.T @ U)
        return out + xi if m1 else out


def noisy_mech(V, params: NoisyMechParams, seed: Seed) -> np.ndarray:
    """Apply the configured variant, sampling from seed's stream (see the module docstring).

    This is NoiseBlock's block of one. The noisy-projection training step
    applies M2 to V = G^T, the transposed weight gradient, with clip_beta set
    to its clipping threshold.
    """
    V = _as_matrix(V)
    return NoiseBlock(params, *V.shape, [seed], seed.generator()).release(0, V)


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
