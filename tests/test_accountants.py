"""Accountant tests: formula oracles, Monte Carlo domination checks, regime errors.

Formula-evaluation oracles re-derive every intermediate with scipy.stats
quantiles; the independent checks of the special functions themselves are the
closed-form oracles in test_specialfn.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

from wishart_dp.accountants import (
    AlignmentSpec,
    account_large_r,
    account_small_r,
    account_vec,
    alignment_lower_bound,
    beta_tail_bound,
    choose_alpha,
    compose_basic,
    compose_gaussian_steps,
    delta_M_bound,
    gaussian_tradeoff,
    jl_clip_zeta,
    min_alignment,
    vec_admissibility_threshold,
)
from wishart_dp.errors import (
    DegenerateInputError,
    DomainError,
    InadmissibleAlignmentError,
    RegimeError,
    VacuousBoundWarning,
)
from wishart_dp.randmat import Seed

from conftest import MASTER


# ---------------------------------------------------------------------------
# minimum alignment
# ---------------------------------------------------------------------------


def test_min_alignment_self_pair():
    v = np.array([0.6, 0.8])
    assert min_alignment([(v, v)]) == pytest.approx(1.0, abs=1e-12)


def test_min_alignment_orthogonal_pair():
    e1, e2 = np.eye(2)
    assert min_alignment([(e1, e2)]) == pytest.approx(0.0, abs=1e-12)


def test_min_alignment_picks_minimum():
    def pair(c):
        return np.array([1.0, 0.0]), np.array([c, math.sqrt(1 - c * c)])

    assert min_alignment([pair(0.9), pair(0.7), pair(0.95)]) == pytest.approx(0.7, abs=1e-12)


def test_min_alignment_empty():
    with pytest.raises(DegenerateInputError):
        min_alignment([])
    # a NaN vector has no norm within 1e-8 of 1 and no alignment
    v = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        min_alignment([(v, np.array([math.nan, 0.0]))])


def test_alignment_lower_bound_values():
    assert alignment_lower_bound(0.0, 1.0, 7) == 1.0
    assert alignment_lower_bound(1.0, 1.0, 4) == pytest.approx(0.5, abs=1e-15)
    assert alignment_lower_bound(10.0, 0.1, 1) == -1.0
    with pytest.raises(DomainError):
        alignment_lower_bound(math.nan, 1.0, 3)


def test_alignment_lower_bound_brute_force_neighbors():
    # Mean of bounded vectors: swap one record at a time and compare the
    # realized cosine of the normalized means against the bound.
    rng = Seed(MASTER, 200).generator()
    n, d, L = 50, 8, 1.0
    offset = np.zeros(d)
    offset[0] = 0.8  # keeps the mean norm away from zero
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = 0.5 * pts + offset  # ||g(x)|| <= 1.3 <= L after rescale below
    pts /= 1.3
    offset_norm_floor = np.linalg.norm(pts.mean(axis=0)) - 2.0 / n
    c0 = offset_norm_floor
    bound = alignment_lower_bound(1.0, c0, n)
    base_mean = pts.mean(axis=0)
    worst = 1.0
    for trial in range(10**4):
        i = trial % n
        repl = rng.standard_normal(d)
        repl /= np.linalg.norm(repl)
        repl = (0.5 * repl + offset) / 1.3
        mean2 = base_mean + (repl - pts[i]) / n
        cos = float(base_mean @ mean2) / (np.linalg.norm(base_mean) * np.linalg.norm(mean2))
        worst = min(worst, cos)
    assert worst >= bound


# ---------------------------------------------------------------------------
# vector accountant
# ---------------------------------------------------------------------------


def test_account_vec_perfect_alignment():
    rep = account_vec(AlignmentSpec(1.0, 17, 4), 0.01, seed=Seed(MASTER, 210))
    assert rep.K == 0.0
    assert rep.eps_rho == 0.0
    assert rep.delta_support == 0.0
    assert rep.delta_rho == pytest.approx(0.03, abs=1e-15)


def test_account_vec_formula_oracle():
    # Re-derive every intermediate with scipy's quantiles.
    rho, d, r, dp = 0.999, 400, 128, 0.001
    rep = account_vec(AlignmentSpec(rho, d, r), dp, seed=Seed(MASTER, 211), support_samples=10**5)
    t = stats.t.ppf(1 - dp, r)
    K = math.sqrt((1 - rho**2) / r) * t
    b = stats.chi2.ppf(1 - dp, d + r - 1)
    eps = (d - r + 1) / 2 * math.log(rho + K) + (1 - rho + K) * b / (2 * (rho - K))
    assert rep.K == pytest.approx(K, rel=1e-9)
    assert rep.b == pytest.approx(b, rel=1e-9)
    assert rep.a_minus == pytest.approx(rho - K, rel=1e-12)
    assert rep.a_plus == pytest.approx(rho + K, rel=1e-12)
    assert rep.eps_rho == pytest.approx(eps, rel=1e-9)
    assert rep.delta_rho == pytest.approx(rep.delta_support + 3 * dp, abs=1e-15)


def test_account_vec_report_reproduces_formula_from_intermediates():
    rho, d, r = 0.98, 100, 16
    rep = account_vec(
        AlignmentSpec(rho, d, r), 0.01, seed=Seed(MASTER, 212), support_samples=10**4
    )
    rebuilt = (d - r + 1) / 2 * math.log(rep.a_plus) + (
        (1 - rho + rep.K) * rep.b / (2 * (rho - rep.K))
    )
    assert rep.eps_rho == pytest.approx(rebuilt, abs=1e-12)


def test_account_vec_inadmissible_alignment():
    thr = vec_admissibility_threshold(16, 0.01)
    assert thr > 0.1
    with pytest.raises(InadmissibleAlignmentError) as err:
        account_vec(AlignmentSpec(0.1, 400, 16), 0.01, seed=Seed(MASTER, 213))
    assert err.value.threshold == pytest.approx(thr, rel=1e-12)


def test_account_vec_rejects_nonpositive_rho():
    with pytest.raises(DomainError):
        account_vec(AlignmentSpec(-0.2, 10, 2), 0.01, seed=Seed(MASTER, 214))


def test_account_vec_monotone_in_rho():
    eps_vals = []
    for rho in np.linspace(0.9, 0.9999, 50):
        rep = account_vec(
            AlignmentSpec(float(rho), 64, 8), 0.01, seed=Seed(MASTER, 215), support_samples=2
        )
        eps_vals.append(rep.eps_rho)
    assert all(b <= a + 1e-12 for a, b in zip(eps_vals, eps_vals[1:]))


# ---------------------------------------------------------------------------
# Gaussian trade-off and tail bounds
# ---------------------------------------------------------------------------


def test_gaussian_tradeoff_zero_mu_convention():
    assert gaussian_tradeoff(1.0, 0.0) == 0.0


def test_gaussian_tradeoff_at_eps_zero_equals_one():
    # Both Phi arguments collapse to -sqrt(mu)/2, so the two terms sum to
    # exactly 1 for every mu > 0: vacuous at eps = 0, but correct as a tail
    # bound (the good set {|L| <= 0} has measure zero).
    for mu in (0.1, 1.0, 4.0):
        assert gaussian_tradeoff(0.0, mu) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_tradeoff_far_tail():
    val = gaussian_tradeoff(10.0, 1.0)
    assert 0.0 < val < 1e-15


def test_gaussian_tradeoff_monotone_in_mu():
    for eps in (0.0, 0.5, 1.0, 3.0):
        grid = np.geomspace(1e-6, 1e3, 200)
        vals = [gaussian_tradeoff(eps, float(m)) for m in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


@settings(max_examples=500, deadline=None)
@given(
    eps=hst.floats(min_value=0.0, max_value=60.0),
    mu=hst.lists(hst.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=2),
)
def test_gaussian_tradeoff_nondecreasing_in_mu_property(eps, mu):
    # account_small_r evaluates T only at mu_bar, which bounds every captured
    # sensitivity below it only because T is nondecreasing in mu; the slack
    # is rounding in the two Phi terms.
    lo, hi = sorted(mu)
    assert gaussian_tradeoff(eps, lo) <= gaussian_tradeoff(eps, hi) * (1.0 + 1e-12)


def test_delta_M_bound_values():
    assert delta_M_bound(1, 1 - 1e-15, 5, 10) < 1e-12
    assert delta_M_bound(1, 0.5, 5, 10) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError):
        delta_M_bound(1, 0.5, 10, 10)


@pytest.mark.parametrize(
    "s, alpha, r, d",
    [(1, 0.9, 10, 100), (1, 0.5, 4, 200), (3, 0.3, 8, 400), (2, 0.2, 10, 100)],
)
def test_delta_M_bound_keeps_tiny_beta_tails(s, alpha, r, d):
    # The first two tails are 1.4e-40 and 1.6e-28; 1 - I_alpha rounds them to 0.
    exact = s * stats.beta.sf(alpha, r / 2.0, (d - r) / 2.0)
    assert exact > 0.0
    assert delta_M_bound(s, alpha, r, d) == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_choose_alpha_capture_term_is_exact_beta_tail():
    alpha, rep = choose_alpha(eps=1.0, mu=4.0, s=2, d=2048, r=64, eta=0.5)
    exact = 2 * stats.beta.sf(alpha, 32.0, 992.0)
    assert rep.delta_M == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_delta_M_bound_dominates_capture_tail(capture_samples_d100_r10):
    samples = capture_samples_d100_r10
    n = samples.size
    for alpha in (0.1, 0.2, 0.3, 0.5):
        emp = float(np.mean(samples > alpha))
        bound = delta_M_bound(1, alpha, 10, 100)
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
        assert bound >= emp - 3 * se
        # s = 1 is exactly the Beta survival
        assert bound == pytest.approx(1 - stats.beta.cdf(alpha, 5, 45), rel=1e-10)


def test_beta_tail_bound_values():
    assert beta_tail_bound(0.9, 10**6) == 0.0 or beta_tail_bound(0.9, 10**6) < 1e-300
    assert beta_tail_bound(0.5, 72) == 1.0  # 2 e^{-1/4} = 1.5576 clamps to 1
    assert 2 * math.exp(-0.25) == pytest.approx(1.5576, abs=1e-4)


def test_beta_tail_bound_dominates_exact_survival():
    eta, r, d = 0.5, 2000, 10**6
    alpha = (1 + eta) * r / d
    exact = 1 - stats.beta.cdf(alpha, r / 2, (d - r) / 2)
    assert beta_tail_bound(eta, r) >= exact


# ---------------------------------------------------------------------------
# small-r accountant
# ---------------------------------------------------------------------------


def test_account_small_r_zero_sensitivity():
    rep = account_small_r(eps=1.0, sens_frob=0.0, s=1, d=100, r=10, sigma=1.0, alpha=0.5)
    assert rep.delta_E == 0.0
    assert rep.delta_total == rep.delta_M


# (1.0, 1e-170): sigma^2 underflows to 0, so mu_bar must overflow to inf rather than divide by 0
@pytest.mark.parametrize(
    "sens, sigma", [(math.nan, 1.0), (math.inf, 1.0), (1e200, 1.0), (1.0, 1e-170)]
)
def test_account_small_r_rejects_nonfinite_mu_bar(sens, sigma):
    with pytest.raises(DomainError):
        account_small_r(eps=1.0, sens_frob=sens, s=1, d=100, r=10, sigma=sigma, alpha=0.5)


def test_account_small_r_alpha_one_is_gaussian_baseline():
    rep = account_small_r(eps=1.0, sens_frob=2.0, s=1, d=100, r=10, sigma=1.0, alpha=1.0)
    assert rep.delta_M == 0.0
    assert rep.delta_E == pytest.approx(gaussian_tradeoff(1.0, 4.0), rel=1e-12)


def test_account_small_r_beats_baseline_at_chosen_alpha():
    rep = account_small_r(eps=1.0, sens_frob=1.0, s=1, d=2048, r=32, sigma=0.5, alpha=0.0235)
    assert rep.delta_total < gaussian_tradeoff(1.0, 1.0 / 0.25)


def test_account_small_r_totals_are_consistent():
    rep = account_small_r(eps=0.5, sens_frob=1.5, s=3, d=256, r=16, sigma=1.0, alpha=0.2)
    assert rep.mu_bar == pytest.approx(0.2 * 1.5**2, rel=1e-12)
    assert rep.delta_total == pytest.approx(min(1.0, rep.delta_E + rep.delta_M), abs=1e-15)
    assert rep.delta_total_unclamped == pytest.approx(rep.delta_E + rep.delta_M, abs=1e-15)


def test_choose_alpha_succeeds_in_regime():
    alpha, rep = choose_alpha(eps=1.0, mu=4.0, s=1, d=2048, r=64, eta=0.5)
    assert alpha == pytest.approx(1.5 * 64 / 2048, rel=1e-12)
    assert rep.delta_total < gaussian_tradeoff(1.0, 4.0)


def test_choose_alpha_lower_regime_error():
    with pytest.raises(RegimeError) as err:
        choose_alpha(eps=1.0, mu=4.0, s=10**6, d=2048, r=10, eta=0.5)
    assert err.value.condition == "lower"
    # the Chernoff guide threshold is far above the requested rank
    chernoff = 72 / 0.25 * math.log(4 * 10**6 / gaussian_tradeoff(1.0, 4.0))
    assert 10 < chernoff
    assert str(math.ceil(chernoff)) in str(err.value)


def test_choose_alpha_upper_regime_error():
    # Large mu pins alpha0 near 0 while alpha = 1.5 r/d stays large.
    with pytest.raises(RegimeError) as err:
        choose_alpha(eps=0.5, mu=30.0, s=1, d=64, r=32, eta=0.5)
    assert err.value.condition == "upper"
    assert err.value.r_bound is not None


def test_choose_alpha_halves_with_doubled_dimension():
    a1, _ = choose_alpha(eps=1.0, mu=4.0, s=1, d=2048, r=64, eta=0.5)
    a2, _ = choose_alpha(eps=1.0, mu=4.0, s=1, d=4096, r=64, eta=0.5)
    assert a2 == pytest.approx(a1 / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# large-r accountant
# ---------------------------------------------------------------------------


_LARGE_R_ARGS = dict(
    d=200, r=150, s=20, p=20, delta_v=0.1, sigma_G=1.0, sigma_M=1.0 / math.sqrt(150),
    beta=0.01, delta_par=1e-5, rho_perp=0.999, delta_prime_perp=1e-3,
)


def test_account_large_r_formula_oracle():
    rep = account_large_r(
        **_LARGE_R_ARGS, seed=Seed(MASTER, 220), support_samples=10**4
    )
    g = math.sqrt(2 * math.log(2 / 0.01))
    gamma = (1 / 150) * (math.sqrt(200) + math.sqrt(20) + g) * (math.sqrt(20) + g)
    eps_par = gamma * 0.1 / 1.0 * math.sqrt(2 * math.log(1.25 / 1e-5))
    assert rep.g_beta == pytest.approx(g, rel=1e-12)
    assert rep.Gamma_beta == pytest.approx(gamma, rel=1e-12)
    assert rep.eps_par == pytest.approx(eps_par, rel=1e-12)
    # residual block is the vector bound at (d-s, r-p)
    t = stats.t.ppf(1 - 1e-3, 130)
    K = math.sqrt((1 - 0.999**2) / 130) * t
    b = stats.chi2.ppf(1 - 1e-3, 180 + 130 - 1)
    eps_perp = (180 - 130 + 1) / 2 * math.log(0.999 + K) + (1 - 0.999 + K) * b / (2 * (0.999 - K))
    assert rep.eps_perp == pytest.approx(eps_perp, rel=1e-9)
    assert rep.eps_total == pytest.approx(rep.eps_par + rep.eps_perp, rel=1e-12)
    assert rep.delta_total == pytest.approx(
        _LARGE_R_ARGS["delta_par"] + rep.delta_perp + _LARGE_R_ARGS["beta"], abs=1e-15
    )
    assert math.isfinite(rep.eps_total)


def test_account_large_r_zero_parallel_sensitivity():
    args = dict(_LARGE_R_ARGS, delta_v=0.0)
    rep = account_large_r(**args, seed=Seed(MASTER, 221), support_samples=10**4)
    assert rep.eps_par == 0.0
    assert rep.eps_total == rep.eps_perp


def test_account_large_r_perfect_residual_alignment():
    args = dict(_LARGE_R_ARGS, rho_perp=1.0)
    rep = account_large_r(**args, seed=Seed(MASTER, 222), support_samples=10**4)
    assert rep.eps_perp == 0.0
    assert rep.delta_perp == pytest.approx(3e-3, abs=1e-15)


def test_account_large_r_degenerate_residual():
    args = dict(_LARGE_R_ARGS, r=20)
    with pytest.raises(DegenerateInputError):
        account_large_r(**args, seed=Seed(MASTER, 223))
    # a NaN delta_v or infinite sigmas (inf / inf) would give a NaN eps_total
    for bad in ({"delta_v": math.nan}, {"sigma_G": math.inf, "sigma_M": math.inf}):
        with pytest.raises(DomainError):
            account_large_r(**dict(_LARGE_R_ARGS, **bad), seed=Seed(MASTER, 223))


def test_account_large_r_propagates_inadmissible_residual():
    args = dict(_LARGE_R_ARGS, rho_perp=0.05)
    with pytest.raises(InadmissibleAlignmentError):
        account_large_r(**args, seed=Seed(MASTER, 224))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_basic_k_fold():
    assert compose_basic([(1.0, 1e-5)], k=3) == (3.0, pytest.approx(3e-5))


def test_compose_basic_single():
    assert compose_basic([(0.7, 0.2)]) == (0.7, 0.2)


def test_compose_basic_additive():
    assert compose_basic([(0.5, 0.0), (0.5, 0.0)]) == (1.0, 0.0)
    # an unbounded step (a noise-free DP-LoRA run) composes to inf; NaN is rejected
    assert compose_basic([(math.inf, 0.0), (0.5, 1e-6)]) == (math.inf, 1e-6)
    # opposite infinities would sum to NaN, and a delta below 0 is no budget
    for bad in (
        [(math.nan, 0.0)], [(0.5, math.nan)], [(-math.inf, 0.0), (math.inf, 0.0)], [(0.5, -0.2)],
    ):
        with pytest.raises(DomainError):
            compose_basic(bad)


def test_compose_basic_order_independent_and_associative():
    budgets = [(0.1, 1e-6), (0.4, 2e-6), (0.25, 5e-7)]
    e1, d1 = compose_basic(budgets)
    e2, d2 = compose_basic(list(reversed(budgets)))
    assert e1 == pytest.approx(e2, rel=1e-15)
    assert d1 == pytest.approx(d2, rel=1e-15)
    # composing a composition equals composing the flat list
    partial = compose_basic(budgets[:2])
    nested = compose_basic([partial, budgets[2]])
    assert nested[0] == pytest.approx(e1, rel=1e-15)


def test_compose_gaussian_single_step_matches_small_r():
    rep = account_small_r(eps=1.0, sens_frob=2.0, s=1, d=64, r=4, sigma=1.0, alpha=0.25)
    composed = compose_gaussian_steps([rep.mu_bar], 1.0, rep.delta_M)
    assert composed == pytest.approx(rep.delta_total, abs=1e-12)


def test_compose_gaussian_zero_mu():
    assert compose_gaussian_steps([0.0, 0.0, 0.0], 1.0, 1e-3) == pytest.approx(3e-3, abs=1e-15)
    with pytest.raises(DomainError):
        compose_gaussian_steps([1.0], 1.0, math.nan)


def test_compose_gaussian_against_loss_monte_carlo():
    # Gaussian privacy losses add across steps: L ~ N(sum mu / 2, sum mu);
    # T(eps; sum mu) is its two-sided tail.
    mus = [1.0, 3.0]
    eps = 2.0
    total_mu = sum(mus)
    rng = Seed(MASTER, 230).generator()
    L = rng.standard_normal(10**6) * math.sqrt(total_mu) + total_mu / 2
    emp = float(np.mean(np.abs(L) > eps))
    se = math.sqrt(emp * (1 - emp) / L.size)
    composed = compose_gaussian_steps(mus, eps, 1e-6)
    assert composed == pytest.approx(emp + 2e-6, abs=2 * se + 1e-9)


# ---------------------------------------------------------------------------
# JL distortion
# ---------------------------------------------------------------------------


def test_jl_clip_zeta_unit_case_is_vacuous():
    with pytest.warns(VacuousBoundWarning):
        z = jl_clip_zeta(1, 12, 2.0 / math.e)
    assert z.zeta == pytest.approx(1.0, rel=1e-12)
    assert z.vacuous


def test_jl_clip_zeta_vanishes_with_rank():
    z = jl_clip_zeta(10, 10**9, 0.01)
    assert z.zeta < 1e-3
    assert not z.vacuous


def test_jl_norm_preservation_empirical():
    d, r, delta_jl = 2000, 500, 0.01
    zeta = jl_clip_zeta(1, r, delta_jl).zeta
    rng = Seed(MASTER, 231).generator()
    ok = 0
    for _ in range(100):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        A = rng.standard_normal((r, d)) / math.sqrt(r)
        ratio = float(np.sum((A @ x) ** 2))
        ok += (1 - zeta) <= ratio <= (1 + zeta)
    assert ok >= 99
