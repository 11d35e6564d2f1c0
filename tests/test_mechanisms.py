"""Mechanism contracts: projections, noise covariance, clipping, amplification."""

import math
import warnings

import numpy as np
import pytest

from wishart_dp.errors import ConfigError, DomainError, OutOfStatedRangeWarning, PreconditionError
from wishart_dp.mechanisms import (
    NoisyMechParams,
    SigmaConvention,
    Variant,
    amplification_gain,
    amplification_threshold,
    amplify_alignment,
    clip_frobenius,
    gaussian_mech,
    gaussian_sigma,
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


def test_noisy_mech_m2_conditional_covariance():
    # Conditional on M, the M2 columns have covariance sigma^2 M^2.
    d, sigma = 5, 0.7
    draw = wishart_draw(d, 4, Seed(MASTER, 111))
    params = NoisyMechParams(variant=Variant.M2, r=4, sigma_G=sigma)
    base = Seed(MASTER, 112)
    n_draws = 10**5
    samples = np.stack(
        [noisy_mech(np.zeros((d, 1)), params, base.child(i), draw=draw)[:, 0]
         for i in range(n_draws)]
    )
    cov = samples.T @ samples / n_draws
    target = sigma**2 * draw.M @ draw.M
    assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()


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


def test_gaussian_sigma_lemma_constant():
    # ln(1.25/delta) = 1 at delta = 1.25/e; eps = 1 sits on the stated boundary.
    with pytest.warns(OutOfStatedRangeWarning):
        sigma = gaussian_sigma(1.0, 1.0, 1.25 / math.e, SigmaConvention.LEMMA)
    assert sigma == pytest.approx(2.0, rel=1e-12)


def test_gaussian_sigma_values_and_scaling():
    with pytest.warns(OutOfStatedRangeWarning):
        s1 = gaussian_sigma(1.0, 1.0, 1e-5, SigmaConvention.LEMMA)
    assert s1 == pytest.approx(2.0 * math.sqrt(math.log(1.25e5)), rel=1e-12)
    assert s1 == pytest.approx(6.8517, abs=2e-4)
    s2 = gaussian_sigma(2.0, 0.5, 1e-5, SigmaConvention.LEMMA)
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_gaussian_sigma_algorithm_constant_is_sqrt2_larger():
    a = gaussian_sigma(1.0, 0.5, 1e-5, SigmaConvention.ALGORITHM)
    b = gaussian_sigma(1.0, 0.5, 1e-5, SigmaConvention.LEMMA)
    assert a == pytest.approx(math.sqrt(2.0) * b, rel=1e-12)


def test_gaussian_sigma_out_of_range_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sigma = gaussian_sigma(1.0, 2.0, 1e-5)
    assert any(issubclass(w.category, OutOfStatedRangeWarning) for w in caught)
    assert sigma > 0.0
    # an infinite eps would calibrate sigma = 0
    with pytest.raises(DomainError):
        gaussian_sigma(1.0, math.inf, 0.1)


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
