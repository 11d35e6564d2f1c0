"""Sampling, projectors, splits: determinism, moments, spectral law, Beta law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

from wishart_dp.errors import DegenerateInputError, DomainError
from wishart_dp.randmat import (
    OrthogonalSplit,
    Seed,
    _splitmix64,
    capture_fraction,
    col_projector,
    orthogonal_split,
    wishart_draw,
    wishart_factor,
)

from conftest import MASTER, capture_fraction_samples, examples

_U64 = hst.integers(0, (1 << 64) - 1)


def test_seed_determinism_bitwise():
    a = wishart_factor(Seed(MASTER, 1).generator(), 2, 2)
    b = wishart_factor(Seed(MASTER, 1).generator(), 2, 2)
    assert np.array_equal(a, b)
    c = wishart_factor(Seed(MASTER, 2).generator(), 2, 2)
    assert not np.array_equal(a, c)
    # wishart_draw is the factor of seed's stream
    assert np.array_equal(wishart_draw(2, 2, Seed(MASTER, 1)).Z, a)


def test_seed_reset_replays_a_fresh_generator():
    # one generator, reset to each seed in turn, draws what seed.generator() draws
    rng = Seed(MASTER, 3).generator()
    seeds = (Seed(0), Seed(MASTER, 4), Seed(MASTER, 5).child(7), Seed((1 << 64) - 1, (1 << 64) - 1))
    for seed in seeds:
        # leave the generator mid-buffer: a half-used 64-bit word and a part-drawn SFC64 stream
        rng.integers(0, 10, 3)
        rng.standard_normal(5)
        assert seed.reset(rng) is rng
        fresh = seed.generator()
        assert np.array_equal(rng.integers(0, 10, 5), fresh.integers(0, 10, 5))
        assert np.array_equal(rng.standard_normal(33), fresh.standard_normal(33))
        assert np.array_equal(rng.random(7), fresh.random(7))


def _sfc64_reference(master: int, stream: int, n: int) -> list[int]:
    """The first n outputs of the documented keying, from a plain-Python SFC64."""
    mask = (1 << 64) - 1
    a = _splitmix64(master)
    b = _splitmix64(stream ^ 0x6A09E667F3BCC909)
    c = _splitmix64(master ^ _splitmix64(stream))
    w = 1
    out = []
    for _ in range(12 + n):
        t = (a + b + w) & mask
        w = (w + 1) & mask
        a, b, c = b ^ (b >> 11), (c + (c << 3)) & mask, (((c << 24) | (c >> 40)) + t) & mask
        out.append(t)
    return out[12:]


@pytest.mark.parametrize(
    "seed, words",
    [
        (Seed(0, 0), [0x458DD0580514E0F0, 0xAE021A193D02C4A4, 0x01A22DE0F3432B3A, 0x6FB41B6BD117DB47]),
        (
            Seed((1 << 64) - 1, (1 << 64) - 1),
            [0xED193B38D5BF9127, 0x358261FAF1BF9637, 0x5CA7B36BF4F222DD, 0xE08047577C11E9D1],
        ),
    ],
)
def test_seed_keying_known_answer(seed, words):
    # pins the keying: a silent change to the hash, the salt or the discard fails here
    assert seed.generator().bit_generator.random_raw(4).tolist() == words
    as_numpy = Seed(np.uint64(seed.master), np.uint64(seed.stream))
    assert as_numpy.generator().bit_generator.random_raw(4).tolist() == words
    assert _sfc64_reference(seed.master, seed.stream, 4) == words


@settings(max_examples=examples(200))
@given(_U64, _U64, _U64, _U64)
def test_seed_reset_replays_generator_for_any_key(m1, s1, m2, s2):
    a, b = Seed(m1, s1), Seed(m2, s2)
    rng = b.generator()
    rng.standard_normal(3)
    first = a.generator().bit_generator.random_raw(8)
    assert np.array_equal(a.reset(rng).bit_generator.random_raw(8), first)
    if (m1, s1) != (m2, s2):
        assert b.generator().bit_generator.random_raw() != first[0]


def test_seed_children_are_distinct():
    s = Seed(MASTER, 5)
    streams = {s.child(i).stream for i in range(1000)}
    assert len(streams) == 1000


def test_seed_validation():
    with pytest.raises(DomainError):
        Seed(-1)
    with pytest.raises(DomainError):
        Seed(0, 1 << 64)


def test_gaussian_matrix_law_of_large_numbers():
    # entries have mean 0 and variance 1/r, r the last dimension
    X = wishart_factor(Seed(MASTER, 10).generator(), 1000, 1000) * math.sqrt(1000)
    assert -0.01 <= X.mean() <= 0.01
    assert 0.99 <= X.var() <= 1.01
    # a batched shape keeps the variance 1/r of the last dimension
    Zs = wishart_factor(Seed(MASTER, 11).generator(), 100, 100, 4)
    assert Zs.shape == (100, 100, 4)
    assert 0.98 <= Zs.var() * 4 <= 1.02


def test_gaussian_matrix_frobenius_expectation():
    # E ||Z||_F^2 = d r (1/r) = d; mean over 1e4 draws within 5%.
    total = 0.0
    for i in range(10**4):
        Z = wishart_factor(Seed(MASTER, 20).child(i).generator(), 3, 2)
        total += float(np.sum(Z * Z))
    assert total / 10**4 == pytest.approx(3.0, rel=0.05)


def test_gaussian_matrix_rejects_bad_args():
    rng = Seed(1).generator()
    for shape in ((0, 3), (3, 0), (2, 0, 3), ()):
        with pytest.raises(DomainError):
            wishart_factor(rng, *shape)
    with pytest.raises(DomainError):
        wishart_draw(3, 0, Seed(1))


def test_wishart_mean_is_identity():
    acc = np.zeros((4, 4))
    n = 10**5
    base = Seed(MASTER, 30)
    for i in range(n):
        acc += wishart_draw(4, 4, base.child(i)).M
    assert np.abs(acc / n - np.eye(4)).max() < 0.02


def test_wishart_rank_one():
    draw = wishart_draw(3, 1, Seed(MASTER, 40))
    assert np.linalg.matrix_rank(draw.M) == 1


def test_wishart_spectrum_concentration():
    # Nonzero spectrum of the normalized draw stays in the stated interval.
    d, r, t = 2000, 50, 4.0
    lo = (math.sqrt(d / r) - 1 - t / math.sqrt(r)) ** 2
    hi = (math.sqrt(d / r) + 1 + t / math.sqrt(r)) ** 2
    inside = 0
    for i in range(100):
        draw = wishart_draw(d, r, Seed(MASTER, 50).child(i))
        eigs = draw.nonzero_eigenvalues()
        inside += bool(eigs.min() >= lo and eigs.max() <= hi)
    assert inside >= 99


def test_wishart_psd_quadratic_forms():
    draw = wishart_draw(30, 7, Seed(MASTER, 60))
    op_norm = float(np.linalg.norm(draw.M, 2))
    rng = Seed(MASTER, 61).generator()
    for _ in range(100):
        x = rng.standard_normal(30)
        assert x @ draw.M @ x >= -1e-10 * op_norm * float(x @ x)


def test_col_projector_axis():
    P = col_projector(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(P, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_col_projector_orthonormal_input():
    rng = Seed(MASTER, 70).generator()
    Q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    assert np.allclose(col_projector(Q), Q @ Q.T, atol=1e-12)


def test_col_projector_properties():
    rng = Seed(MASTER, 71).generator()
    Z = rng.standard_normal((5, 2))
    P = col_projector(Z)
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(P @ Z - Z).max() < 1e-9 * np.linalg.norm(Z)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-9)


def test_col_projector_rejects_zero():
    with pytest.raises(DegenerateInputError):
        col_projector(np.zeros((4, 2)))
    # numpy's SVD would raise a bare LinAlgError on a NaN factor
    with pytest.raises(DomainError):
        col_projector([[np.nan], [1.0]])


def _random_split(d, r, s, stream) -> tuple[np.ndarray, np.ndarray, OrthogonalSplit]:
    rng = Seed(MASTER, stream).generator()
    Z = rng.standard_normal((d, r))
    U = np.linalg.qr(rng.standard_normal((d, s)))[0] if s else np.zeros((d, 0))
    return Z, U, orthogonal_split(Z, U)


def test_orthogonal_split_empty_conditioning():
    Z, _, split = _random_split(6, 3, 0, 80)
    assert split.p == 0
    assert np.abs(split.M_par).max() == 0.0
    assert np.allclose(split.M_perp, Z @ Z.T, atol=1e-12)


def test_orthogonal_split_full_conditioning():
    Z, _, split = _random_split(6, 3, 6, 81)
    # U spans everything, so rank(G) = r and the residual vanishes.
    assert split.p == 3
    assert np.abs(split.M_perp).max() < 1e-9


def test_orthogonal_split_reconstruction_and_annihilation():
    Z, U, split = _random_split(6, 3, 2, 82)
    M = Z @ Z.T
    assert np.linalg.norm(M - split.M_par - split.M_perp) <= 1e-9 * np.linalg.norm(M)
    assert np.abs(U.T @ split.Z_perp).max() < 1e-9
    for k in range(2):
        assert np.linalg.norm(split.M_perp @ U[:, k]) < 1e-9
    assert split.p <= min(2, 3)


def test_orthogonal_split_posterior_stability_property():
    # Vectors inside the conditioning subspace see only the parallel block.
    Z, U, split = _random_split(12, 5, 3, 83)
    M = Z @ Z.T
    rng = Seed(MASTER, 84).generator()
    for _ in range(5):
        v = U @ rng.standard_normal(3)
        assert np.linalg.norm(M @ v - split.M_par @ v) < 1e-9 * np.linalg.norm(M @ v)


def test_orthogonal_split_rejects_non_orthonormal():
    rng = Seed(MASTER, 85).generator()
    Z = rng.standard_normal((5, 2))
    with pytest.raises(DomainError):
        orthogonal_split(Z, rng.standard_normal((5, 2)))
    # a NaN factor: the SVD of U^T Z fails, and an empty U would give NaN blocks
    Z_nan = np.array([[np.nan], [1.0]])
    for U in (np.eye(2)[:, :1], np.zeros((2, 0))):
        with pytest.raises(DomainError):
            orthogonal_split(Z_nan, U)


def test_capture_fraction_extremes():
    rng = Seed(MASTER, 90).generator()
    Z = rng.standard_normal((6, 2))
    inside = Z @ rng.standard_normal((2, 3))
    assert capture_fraction(Z, inside) == pytest.approx(1.0, abs=1e-10)
    # build a vector orthogonal to col(Z)
    q = np.linalg.qr(Z)[0]
    v = rng.standard_normal(6)
    v -= q @ (q.T @ v)
    assert capture_fraction(Z, v) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DegenerateInputError):
        capture_fraction(Z, np.zeros(6))
    # a NaN entry has no capture fraction; 0 would be the most optimistic one
    with pytest.raises(DomainError):
        capture_fraction(np.eye(3)[:, :1], [np.nan, 1.0, 0.0])


def test_capture_fraction_beta_law(capture_samples_d100_r10):
    # Rank-1 capture fractions follow Beta(r/2, (d-r)/2) = Beta(5, 45).
    ks = stats.kstest(capture_samples_d100_r10, lambda x: stats.beta.cdf(x, 5.0, 45.0)).statistic
    assert ks < 0.01


def test_capture_fraction_haar_invariance():
    # Rotating the probe direction leaves the capture law unchanged.
    d, r, n = 40, 6, 10**5
    u = np.zeros(d)
    u[0] = 1.0
    rng = Seed(MASTER, 95).generator()
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = capture_fraction_samples(d, r, u, n, Seed(MASTER, 96))
    b = capture_fraction_samples(d, r, Q @ u, n, Seed(MASTER, 97))
    assert stats.ks_2samp(a, b).statistic < 0.02


# ---------------------------------------------------------------------------
# Input checks: each rejection raises its WishartDpError subclass and names the argument
# ---------------------------------------------------------------------------

_REJECTIONS = {
    "split-U-rows": (lambda: orthogonal_split(np.ones((4, 2)), np.eye(3)[:, :1]), "U"),
    "child-negative-index": (lambda: Seed(1).child(-1), "index"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_input_check_raises_and_names_the_argument(case):
    call, name = _REJECTIONS[case]
    with pytest.raises(DomainError, match=rf"\b{name}\b") as raised:
        call()
    assert raised.type is DomainError
