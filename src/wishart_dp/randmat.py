"""Seeded Gaussian/Wishart sampling, orthogonal projectors, and exact splits.

All sampling goes through an explicit ``Seed`` (master key plus substream
index) backed by an SFC64 generator, so identical seeds reproduce identical
draws bit for bit and parallel Monte Carlo loops can hand each chunk its own
substream without coordination. Matrices are plain numpy arrays treated as
immutable values.

SFC64 (Doty-Humphrey's small fast chaotic generator) is not counter-based, so
a seed is hashed into its 256-bit state: the words
(h(master), h(stream ^ c), h(master ^ h(stream)), 1), h the splitmix64
finalizer and c a fixed odd constant, after which the first 12 outputs are
discarded, as the generator's author advises. Why distinct seeds keep apart:

- h is a bijection of 64-bit words, so distinct (master, stream) pairs give
  distinct 256-bit states (the first two words alone determine the pair);
- the SFC64 round is a bijection of its state, so the states stay distinct
  after the discard;
- the fourth word is a 64-bit counter, so every stream has a period of at
  least 2^64 and no stream cycles within 2^64 draws.

Distinct keys of a counter-based generator such as Philox give disjoint
streams by construction. Here no two streams overlap only with high
probability: if the hashed states fall like random points of the state
space, whose cycles average about 2^255 states, n streams of L draws overlap
with probability of order n^2 L / 2^255. That is a probability bound, not a
structural guarantee.

Every Wishart matrix in the package is M = Z Z^T with the r columns of Z
holding i.i.d. N(0, 1/r) entries, so that E[M] = I; wishart_factor is the
only sampler of Z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, DomainError

_MASK64 = (1 << 64) - 1
# Seed keying (module docstring): the stream word's salt, and the outputs
# discarded after keying.
_STREAM_SALT = 0x6A09E667F3BCC909
_DISCARD = 12


def _splitmix64(x: int) -> int:
    # Finalizer of the splitmix64 generator; bijective on 64-bit words.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Seed:
    """Key for a reproducible random stream: (master, stream) -> a hashed SFC64 state."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _MASK64:
                raise DomainError(f"Seed.{name} must be an unsigned 64-bit integer, got {v!r}")
            # store a plain int, so that child() and reset() never do numpy
            # scalar arithmetic; a plain int skips the store, which would add
            # about 0.5 us to every child()
            if type(v) is not int:
                object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        # SFC64(0) seeds from a fixed SeedSequence, so it reads no OS entropy
        return self.reset(np.random.Generator(np.random.SFC64(0)))

    def reset(self, rng: np.random.Generator) -> np.random.Generator:
        """rng, a generator() of any seed, rewound to the start of this seed's stream.

        Its draws then equal self.generator()'s bit for bit. A loop that keys
        a generator per step resets one instead: on a 2-vCPU x86 host the
        reset costs 4.2-4.8 us, 1.8 us of it the four splitmix64 rounds,
        against 14-15 us for generator(). The state setter copies each word,
        so a plain tuple serves, and random_raw(12) discards in about 0.6 us
        against 2.1 us for random_raw(12, output=False).
        """
        words = (
            _splitmix64(self.master),
            _splitmix64(self.stream ^ _STREAM_SALT),
            _splitmix64(self.master ^ _splitmix64(self.stream)),
            1,
        )
        bits = rng.bit_generator
        bits.state = {
            "bit_generator": "SFC64",
            "state": {"state": words},
            "has_uint32": 0,
            "uinteger": 0,
        }
        bits.random_raw(_DISCARD)
        return rng

    def child(self, index: int) -> "Seed":
        """Derived substream; child(i) of (master, stream) is collision-free in practice."""
        if index < 0:
            raise DomainError(f"substream index must be >= 0, got {index}")
        mixed = _splitmix64((self.stream ^ _splitmix64(operator.index(index) + 1)) & _MASK64)
        return Seed(self.master, mixed)


def wishart_factor(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Wishart factor Z of the given shape in the convention above, with r = shape[-1].

    Leading dimensions batch independent factors. The product with
    sqrt(1/r) is part of the seeded stream: Z / sqrt(r) rounds differently.
    """
    if not shape or min(shape) < 1:
        raise DomainError(f"factor dimensions must be >= 1, got {shape}")
    return rng.standard_normal(shape) * math.sqrt(1.0 / shape[-1])


@dataclass(eq=False)
class WishartDraw:
    """A sampled d x r factor Z together with its Gram matrix M = Z Z^T."""

    Z: np.ndarray

    @cached_property
    def M(self) -> np.ndarray:
        return self.Z @ self.Z.T

    def nonzero_eigenvalues(self) -> np.ndarray:
        """Nonzero spectrum of M via singular values of Z (cheap for r << d)."""
        return np.linalg.svd(self.Z, compute_uv=False) ** 2


def wishart_draw(d: int, r: int, seed: Seed) -> WishartDraw:
    """Draw a d x r Wishart factor from seed's stream."""
    return WishartDraw(Z=wishart_factor(seed.generator(), d, r))


def _rank_tol(s: np.ndarray, shape: tuple[int, ...]) -> float:
    """The cutoff below which a singular value of a matrix of this shape counts as zero."""
    return max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)


def col_projector(Z: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto col(Z), rank determined by singular values."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if not np.isfinite(Z).all():
        raise DomainError("col_projector: Z must be finite")
    U, s, _ = np.linalg.svd(Z, full_matrices=False)
    k = int(np.sum(s > _rank_tol(s, Z.shape)))
    if k == 0:
        raise DegenerateInputError("col_projector: matrix is numerically zero")
    Uk = U[:, :k]
    return Uk @ Uk.T


@dataclass(eq=False)
class OrthogonalSplit:
    """Decomposition M = M_par + M_perp relative to a conditioning subspace span(U).

    P_H projects (in row space, r x r) onto the rows of G = U^T Z; M_perp
    annihilates span(U) exactly up to floating point.
    """

    U: np.ndarray
    p: int
    M_par: np.ndarray
    M_perp: np.ndarray
    P_H: np.ndarray
    Z_par: np.ndarray
    Z_perp: np.ndarray


def orthogonal_split(Z: np.ndarray, U: np.ndarray) -> OrthogonalSplit:
    """Split M = ZZ^T into the block correlated with span(U) and the residual block."""
    Z = np.asarray(Z, dtype=float)
    U = np.asarray(U, dtype=float)
    d, r = Z.shape
    if U.ndim != 2 or U.shape[0] != d:
        raise DomainError(f"U must be d x s with d={d}, got shape {U.shape}")
    if not (np.isfinite(Z).all() and np.isfinite(U).all()):
        raise DomainError("orthogonal_split: Z and U must be finite")
    s = U.shape[1]
    if s > 0:
        gram = U.T @ U
        if not np.allclose(gram, np.eye(s), atol=1e-10):
            raise DomainError("U must have orthonormal columns (U^T U = I within 1e-10)")
    if s == 0:
        P_H = np.zeros((r, r))
        p = 0
    else:
        G = U.T @ Z
        _, sv, Vt = np.linalg.svd(G, full_matrices=False)
        p = int(np.sum(sv > _rank_tol(sv, G.shape)))
        Vp = Vt[:p].T
        P_H = Vp @ Vp.T
    Z_par = Z @ P_H
    Z_perp = Z - Z_par
    return OrthogonalSplit(
        U=U,
        p=p,
        M_par=Z_par @ Z_par.T,
        M_perp=Z_perp @ Z_perp.T,
        P_H=P_H,
        Z_par=Z_par,
        Z_perp=Z_perp,
    )


def capture_fraction(Z: np.ndarray, delta_v: np.ndarray) -> float:
    """Fraction of the Frobenius mass of delta_v captured by col(Z)."""
    delta_v = np.asarray(delta_v, dtype=float)
    if delta_v.ndim == 1:
        delta_v = delta_v[:, None]
    if not np.isfinite(delta_v).all():
        raise DomainError("capture_fraction: delta_v must be finite")
    total = float(np.sum(delta_v**2))
    if total == 0.0:
        raise DegenerateInputError("capture_fraction: delta_v is zero")
    P = col_projector(Z)
    captured = float(np.sum((P @ delta_v) ** 2))
    return min(1.0, max(0.0, captured / total))
