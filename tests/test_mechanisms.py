"""Mechanism contracts: projections, noise covariance, clipping, amplification."""

import math

import numpy as np
import pytest

from wishart_dp import mechanisms
from wishart_dp.errors import ConfigError, DomainError, PreconditionError
from wishart_dp.mechanisms import (
    SKETCH_OVERHEAD,
    NoisyMechParams,
    Variant,
    amplification_gain,
    amplification_threshold,
    amplify_alignment,
    clip_frobenius,
    gaussian_mech,
    noisy_mech,
    project,
)
from wishart_dp.randmat import Seed, WishartDraw, wishart_draw

from conftest import MASTER


def test_project_zero_input():
    draw = wishart_draw(5, 3, Seed(MASTER, 100))
    out = project(np.zeros((5, 2)), draw)
    assert np.abs(out).max() == 0.0


def test_project_mean_is_identity():
    # E[M] = I, so the averaged projection recovers v.
    d = r = 64
    v = Seed(MASTER, 101).generator().standard_normal(d)
    v /= np.linalg.norm(v)
    acc = np.zeros(d)
    base = Seed(MASTER, 102)
    n = 10**4
    for i in range(n):
        acc += project(v, wishart_draw(d, r, base.child(i)))[:, 0]
    assert np.linalg.norm(acc / n - v) < 0.03


def test_project_fixed_factor_is_projector():
    Z = np.array([[1.0], [0.0]])
    draw = WishartDraw(Z=Z)
    out = project(np.array([1.0, 0.0])[:, None], draw)
    assert np.allclose(out[:, 0], [1.0, 0.0])


def test_project_dimension_mismatch():
    draw = wishart_draw(4, 2, Seed(MASTER, 103))
    with pytest.raises(DomainError):
        project(np.zeros((5, 1)), draw)
    # a NaN input has no projection
    with pytest.raises(DomainError):
        project(np.full((4, 1), math.nan), draw)


def test_noisy_mech_m1_pure_noise_covariance():
    # V = 0 makes M1 pure Gaussian noise with column covariance sigma^2 I.
    d, n_draws, sigma = 6, 10**5, 1.0
    params = NoisyMechParams(variant=Variant.M1, r=3, sigma_G=sigma)
    base = Seed(MASTER, 110)
    samples = np.stack(
        [noisy_mech(np.zeros((d, 1)), params, base.child(i))[:, 0]
         for i in range(n_draws)]
    )
    cov = samples.T @ samples / n_draws
    assert np.abs(np.diag(cov) - sigma**2).max() < 0.05
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.05


def test_noisy_mech_clipping_contract():
    d = 4
    V = np.full((d, 2), 0.5)
    V *= 2.0 / np.linalg.norm(V)  # ||V||_F = 2
    clipped = clip_frobenius(V, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0, abs=1e-12)
    # the mechanism applies the same clipping before projecting
    params = NoisyMechParams(variant=Variant.M2, r=2, sigma_G=0.5, clip_beta=1.0)
    seed = Seed(MASTER, 113)
    out = noisy_mech(V, params, seed)
    direct = noisy_mech(clipped, params, seed)
    assert np.array_equal(out, direct)
    # a non-finite input has no Frobenius norm to clip to, clipped or not
    bad = np.full((d, 2), math.nan)
    with pytest.raises(DomainError):
        clip_frobenius(bad, 1.0)
    with pytest.raises(DomainError):
        noisy_mech(bad, params, seed)
    with pytest.raises(DomainError):
        noisy_mech(bad, NoisyMechParams(variant=Variant.M1, r=2, sigma_G=0.5), seed)


def test_noisy_mech_param_validation():
    with pytest.raises(ConfigError):
        NoisyMechParams(variant=Variant.M1, r=2, sigma_G=0.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            NoisyMechParams(variant=Variant.M2, r=2, sigma_G=bad)


def test_noisy_mech_m1_marginal_mean():
    # Over (M, Xi), E[M1(V)] = V, since E[M] = I and Xi is centred.
    d, r = 8, 4
    rng = Seed(MASTER, 114).generator()
    V = rng.standard_normal((d, 2))
    params = NoisyMechParams(variant=Variant.M1, r=r, sigma_G=0.5)
    base = Seed(MASTER, 115)
    acc = np.zeros((d, 2))
    n = 2 * 10**4
    for i in range(n):
        acc += noisy_mech(V, params, base.child(i))
    assert np.abs(acc / n - V).max() < 0.05 * np.abs(V).max()


def _z_then_xi(V, params, rng):
    """The direct path, rebuilt here: Z, then Xi, from rng."""
    d, n = V.shape
    Z = rng.standard_normal((d, params.r)) * math.sqrt(1.0 / params.r)
    xi = rng.standard_normal((d, n)) * params.sigma_G
    if params.variant is Variant.M1:
        return Z @ (Z.T @ V) + xi
    return Z @ (Z.T @ (V + xi))


@pytest.mark.parametrize("variant", list(Variant))
def test_noisy_mech_direct_path_is_z_then_xi(variant):
    # M1 at mia's r = 16 shape saves 608 normals through the sketch, below the
    # crossover; M2 there takes the fold, so its direct shape has 2 r > d
    d, r, n = (128, 16, 10) if variant is Variant.M1 else (24, 16, 10)
    assert mechanisms._path(variant, d, r, n) == mechanisms.DIRECT
    V = Seed(MASTER, 140).generator().standard_normal((d, n))
    params = NoisyMechParams(variant=variant, r=r, sigma_G=0.5)
    seed = Seed(MASTER, 141)
    expect = _z_then_xi(V, params, seed.generator())
    assert np.array_equal(noisy_mech(V, params, seed), expect)


def test_noisy_mech_sketch_draws_xi_first():
    # at mia's r = 64 shape the rule picks the sketch, whose first draw is Xi:
    # M1 of V = 0 releases Xi itself (R = 0 in the QR of V)
    d, r, n = 128, 64, 10
    assert d * r - n * (d + r) > SKETCH_OVERHEAD
    params = NoisyMechParams(variant=Variant.M1, r=r, sigma_G=0.5)
    seed = Seed(MASTER, 143)
    xi = seed.generator().standard_normal((d, n)) * 0.5
    assert np.array_equal(noisy_mech(np.zeros((d, n)), params, seed), xi)
    # an empty query takes the direct path and releases an empty array
    assert noisy_mech(np.zeros((d, 0)), params, seed).shape == (d, 0)


def test_noisy_mech_fold_draws_z_then_e():
    # at mia's r = 16 shape M2 takes the fold: Z, then the r x n block E, and
    # M2(0) = sigma Z chol(Z^T Z) E
    d, r, n = 128, 16, 10
    params = NoisyMechParams(variant=Variant.M2, r=r, sigma_G=0.5)
    seed = Seed(MASTER, 149)
    rng = seed.generator()
    Z = rng.standard_normal((d, r)) * math.sqrt(1.0 / r)
    E = rng.standard_normal((r, n))
    expect = Z @ (np.linalg.cholesky(Z.T @ Z) @ E * 0.5)
    out = noisy_mech(np.zeros((d, n)), params, seed)
    assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max()


def test_noisy_mech_sketch_rank_deficient_m1():
    # Householder QR factors a rank-1 V exactly: a zero column releases its Xi
    # column, and two equal columns project identically
    d, r = 128, 64
    v = Seed(MASTER, 144).generator().standard_normal(d)
    V = np.stack([v, v, np.zeros(d)], axis=1)
    assert d * r - 3 * (d + r) > SKETCH_OVERHEAD
    params = NoisyMechParams(variant=Variant.M1, r=r, sigma_G=0.5)
    seed = Seed(MASTER, 145)
    out = noisy_mech(V, params, seed)
    xi = seed.generator().standard_normal((d, 3)) * 0.5
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[:, 2], xi[:, 2])
    proj = out - xi
    assert np.abs(proj[:, 0] - proj[:, 1]).max() <= 1e-12 * np.abs(proj).max()
    # E[M v] = v, so the projection is not degenerate
    assert 0.5 < np.linalg.norm(proj[:, 0]) / np.linalg.norm(v) < 2.0


def _max_moment_z(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |z| between samples a and b (draws in rows) over all first and second moments."""

    def moments(x):
        i, j = np.triu_indices(x.shape[1])
        f = np.hstack([x, x[:, i] * x[:, j]])
        return f.mean(axis=0), f.var(axis=0, ddof=1) / len(f)

    (ma, va), (mb, vb) = moments(a), moments(b)
    return float(np.max(np.abs(ma - mb) / np.sqrt(va + vb)))


def _block_draws(params, V, seed, draws):
    """draws releases of V, one per child of seed, drawn as one NoiseBlock."""
    seeds = [seed.child(i) for i in range(draws)]
    block = mechanisms.NoiseBlock(params, *V.shape, seeds, Seed(1).generator())
    return block, np.stack([block.release(b, V).ravel() for b in range(draws)])


def _direct_draws(variant, V, r, sigma, seed, draws):
    """draws releases of V along the direct path, batched, from one generator."""
    d, n = V.shape
    ref = seed.generator()
    Z = ref.standard_normal((draws, d, r)) * math.sqrt(1.0 / r)
    xi = ref.standard_normal((draws, d, n)) * sigma
    U = V + xi if variant is Variant.M2 else V
    direct = Z @ (Z.transpose(0, 2, 1) @ U)
    if variant is Variant.M1:
        direct = direct + xi
    return direct.reshape(draws, -1)


@pytest.mark.parametrize(
    "variant, columns",
    [(Variant.M2, "generic"), (Variant.M1, "rank_1")],
)
def test_noisy_mech_sketch_matches_direct_law(monkeypatch, variant, columns):
    # Lower the crossover so that the rule picks the sketch at a shape small
    # enough to compare all 171 second moments of the 6 x 3 output with the
    # direct path's, drawn here in one batch.
    monkeypatch.setattr(mechanisms, "SKETCH_OVERHEAD", -1)
    d, r, n, draws = 6, 12, 3, 40_000
    V = Seed(MASTER, 146).generator().standard_normal((d, n))
    if columns == "rank_1":
        V[:, 1] = V[:, 0]
        V[:, 2] = 0.0
    params = NoisyMechParams(variant=variant, r=r, sigma_G=0.7)
    block, sketch = _block_draws(params, V, Seed(MASTER, 147), draws)
    assert block.path == mechanisms.SKETCH
    direct = _direct_draws(variant, V, r, 0.7, Seed(MASTER, 148), draws)
    assert _max_moment_z(sketch, direct) < 4.5


@pytest.mark.parametrize("n", [3, 1])
def test_noisy_mech_fold_matches_direct_law(monkeypatch, n):
    # Lower the fold's overhead so that the rule picks it at d = 6, r = 3
    # (2 r = d, the widest rank it takes), and compare every first and second
    # moment of the output with the direct path's: 189 of them at n = 3, 27 at n = 1.
    monkeypatch.setattr(mechanisms, "FOLD_OVERHEAD", -1)
    d, r, draws = 6, 3, 40_000
    V = Seed(MASTER, 150).generator().standard_normal((d, n))
    params = NoisyMechParams(variant=Variant.M2, r=r, sigma_G=0.7)
    block, fold = _block_draws(params, V, Seed(MASTER, 151), draws)
    assert block.path == mechanisms.FOLD
    direct = _direct_draws(Variant.M2, V, r, 0.7, Seed(MASTER, 152), draws)
    assert _max_moment_z(fold, direct) < 4.5


# (variant, d, r, n) -> path, for the shapes that perfbench's mia and train
# workloads and criterion 10 sample (d = 128, n = 10), and for the cases that
# never fold: M1, a rank above d / 2, a single column at d = 128 and an empty query
PATHS = [
    (Variant.M2, 128, 4, 10, mechanisms.FOLD),
    (Variant.M2, 128, 16, 10, mechanisms.FOLD),
    (Variant.M2, 128, 64, 10, mechanisms.SKETCH),
    (Variant.M1, 128, 4, 10, mechanisms.DIRECT),
    (Variant.M1, 128, 16, 10, mechanisms.DIRECT),
    (Variant.M1, 128, 64, 10, mechanisms.SKETCH),
    (Variant.M2, 24, 16, 10, mechanisms.DIRECT),
    (Variant.M2, 128, 65, 10, mechanisms.SKETCH),
    (Variant.M2, 12, 7, 1, mechanisms.DIRECT),
    (Variant.M2, 128, 16, 1, mechanisms.DIRECT),
    (Variant.M2, 128, 16, 0, mechanisms.DIRECT),
]


@pytest.mark.parametrize("variant, d, r, n, path", PATHS)
def test_noisy_mech_path_table(variant, d, r, n, path):
    assert mechanisms._path(variant, d, r, n) == path
    params = NoisyMechParams(variant=variant, r=r, sigma_G=0.5)
    assert mechanisms.NoiseBlock(params, d, n, [Seed(1)], Seed(1).generator()).path == path


def test_noisy_mech_never_folds_m1_or_a_rank_above_half_d():
    for d in range(1, 70):
        for r in range(1, 70):
            for n in (0, 1, 5, 10):
                path = mechanisms._path(Variant.M2, d, r, n)
                assert path != mechanisms.FOLD or 2 * r <= d
                assert mechanisms._path(Variant.M1, d, r, n) != mechanisms.FOLD


@pytest.mark.parametrize("path", [mechanisms.DIRECT, mechanisms.SKETCH, mechanisms.FOLD])
def test_noisy_mech_raises_no_linalg_error(monkeypatch, path):
    # Forced onto shapes that the rule never gives them, the sketch (n >= r)
    # and the fold (r > d) factor singular matrices; each factor then comes
    # from eigh, and each release is finite. The sketch needs n <= d for its QR.
    monkeypatch.setattr(mechanisms, "_path", lambda *shape: path)
    for d in (1, 2, 3, 5):
        for r in (1, 2, 4, 7):
            for n in range(0, 4 if path != mechanisms.SKETCH else min(d, 3) + 1):
                for variant in ([Variant.M2] if path == mechanisms.FOLD else list(Variant)):
                    params = NoisyMechParams(variant=variant, r=r, sigma_G=0.5, clip_beta=1.0)
                    V = np.ones((d, n))
                    out = noisy_mech(V, params, Seed(MASTER, 154).child(d * 100 + r * 10 + n))
                    assert out.shape == (d, n) and np.all(np.isfinite(out))


def test_cholesky_falls_back_per_matrix():
    # a singular matrix in a stack gets a symmetric square root; the others
    # keep their Cholesky factor, bit for bit as when factored alone
    rng = Seed(MASTER, 155).generator()
    z = rng.standard_normal((3, 1))
    B = rng.standard_normal((3, 3))
    A = np.stack([B @ B.T, z @ z.T, B.T @ B])
    L = mechanisms._cholesky(A)
    assert np.array_equal(L[0], np.linalg.cholesky(A[0]))
    assert np.array_equal(L[2], np.linalg.cholesky(A[2]))
    assert np.abs(L[1] @ L[1].T - A[1]).max() <= 1e-12 * np.abs(A[1]).max()
    assert np.all(np.isfinite(L))


def test_gaussian_mech_vanishing_noise():
    v = np.array([1.0, -2.0, 3.0])
    out = gaussian_mech(v, 1e-12, Seed(MASTER, 120))
    assert np.abs(out - v).max() < 1e-9
    # an infinite scale releases only +-inf, and a NaN entry has no release
    with pytest.raises(DomainError):
        gaussian_mech(v, math.inf, Seed(MASTER, 120))
    with pytest.raises(DomainError):
        gaussian_mech([math.nan, 1.0], 1.0, Seed(MASTER, 120))


def test_gaussian_mech_variance():
    out = gaussian_mech(np.zeros(10**6), 2.0, Seed(MASTER, 121))
    assert out.var() == pytest.approx(4.0, rel=0.05)


def test_gaussian_mech_determinism():
    v = np.ones(5)
    a = gaussian_mech(v, 1.0, Seed(MASTER, 122))
    b = gaussian_mech(v, 1.0, Seed(MASTER, 122))
    assert np.array_equal(a, b)


def test_amplify_alignment_gamma_zero():
    v = np.zeros(8)
    v[0] = 1.0
    out = amplify_alignment(v, 0.0, Seed(MASTER, 130))
    assert np.array_equal(out, v)


def test_amplify_alignment_norm_envelope():
    v = np.zeros(16)
    v[0] = 1.0
    for i in range(50):
        out = amplify_alignment(v, 0.3, Seed(MASTER, 131).child(i))
        assert 1.0 - 0.3 - 1e-12 <= np.linalg.norm(out) <= 1.0 + 0.3 + 1e-12


def test_amplify_alignment_requires_unit_vector():
    with pytest.raises(DomainError):
        amplify_alignment(np.ones(4), 0.1, Seed(1))
    # a NaN norm is not within 1e-8 of 1
    with pytest.raises(DomainError):
        amplify_alignment(np.array([math.nan, 0.0]), 0.1, Seed(1))


def test_amplification_gain_large_d_limit():
    rho, gamma = 0.3, 1.0
    s = amplification_gain(rho, gamma, 10**12, 0.01)
    assert s == pytest.approx((1 - rho) * gamma**2 / (1 + gamma**2), rel=1e-4)


def test_amplification_gain_rejects_perfect_alignment():
    with pytest.raises(PreconditionError):
        amplification_gain(1.0, 1.0, 1000, 0.01)


def test_amplification_gain_rejects_below_threshold():
    thr = amplification_threshold(0.0, 100, 0.01)
    with pytest.raises(PreconditionError) as err:
        amplification_gain(0.0, thr * 0.99, 100, 0.01)
    assert f"{thr:.6g}" in str(err.value)
    # an infinite gamma is above every threshold but gives inf / inf
    with pytest.raises(DomainError):
        amplification_gain(0.2, math.inf, 4000, 0.01)


def test_amplification_gain_formula_oracle():
    # Independent re-evaluation of each subexpression.
    rho, gamma, d, delta = 0.0, 1.0, 10**6, 0.01
    c = math.sqrt(2.0 / d * math.log(8.0 / delta))
    expected = ((1 - rho) * gamma**2 - 4 * gamma * c) / (1 + gamma**2 + 2 * gamma * c)
    assert amplification_gain(rho, gamma, d, delta) == pytest.approx(expected, rel=1e-14)


def test_amplification_empirical_frequency():
    # Shared-noise pairs reach cosine >= rho + s in >= 99% of trials.
    rho, d, gamma, delta = 0.2, 4000, 1.0, 0.01
    gain = amplification_gain(rho, gamma, d, delta)
    v = np.zeros(d)
    v[0] = 1.0
    w = np.zeros(d)
    w[0] = rho
    w[1] = math.sqrt(1 - rho**2)
    hits = 0
    trials = 2000
    base = Seed(MASTER, 132)
    for i in range(trials):
        a = amplify_alignment(v, gamma, base.child(i))
        b = amplify_alignment(w, gamma, base.child(i))
        cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        hits += cos >= rho + gain
    assert hits >= 0.99 * trials


# ---------------------------------------------------------------------------
# Input checks: each rejection raises its WishartDpError subclass and names the argument
# ---------------------------------------------------------------------------

_M2 = NoisyMechParams(variant=Variant.M2, r=2, sigma_G=1.0)


def _block():
    """A two-draw block of 6 x 1 queries."""
    return mechanisms.NoiseBlock(_M2, 6, 1, [Seed(1), Seed(2)], Seed(1).generator())


_REJECTIONS = {
    "project-3d-query": (lambda: project(np.ones((2, 2, 2)), wishart_draw(2, 1, Seed(1))), "V"),
    "clip-zero-threshold": (lambda: clip_frobenius(np.ones(3), 0.0), "beta"),
    "amplify-negative-gamma": (lambda: amplify_alignment(np.array([1.0, 0.0]), -1.0, Seed(1)), "gamma"),
    "threshold-d": (lambda: amplification_threshold(0.5, 0, 0.1), "d"),
    "threshold-delta": (lambda: amplification_threshold(0.5, 10, 1.0), "delta"),
    "threshold-rho": (lambda: amplification_threshold(-1.0, 10, 0.1), "rho"),
    "params-r": (lambda: NoisyMechParams(variant=Variant.M2, r=0, sigma_G=1.0), "r"),
    "params-clip": (lambda: NoisyMechParams(variant=Variant.M2, r=2, sigma_G=1.0, clip_beta=0.0), "clip_beta"),
    "block-d": (lambda: mechanisms.NoiseBlock(_M2, 0, 1, [Seed(1)], Seed(1).generator()), "d"),
    "release-shape": (lambda: _block().release(0, np.ones((6, 2))), "V"),
    "release-index": (lambda: _block().release(2, np.ones(6)), "b"),
    "release-negative-index": (lambda: _block().release(-1, np.ones(6)), "b"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_input_check_raises_and_names_the_argument(case):
    call, name = _REJECTIONS[case]
    with pytest.raises(DomainError, match=rf"\b{name}\b") as raised:
        call()
    assert raised.type is DomainError
