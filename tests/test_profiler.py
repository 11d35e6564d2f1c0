"""Profile estimator tests: distributional representation, loss identities,
support-failure mass, density normalization, worker-count independence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

from wishart_dp import profiler
from wishart_dp.errors import DomainError, OutsideSupportError
from scipy.special import stdtr

from wishart_dp.profiler import (
    RatioSample,
    _chunk_seeds,
    delta_support,
    log_density_mv,
    mc_privacy_profile,
    privacy_loss,
    privacy_loss_array,
    ratio_from_point,
    sample_ratio_arrays,
)
from wishart_dp.randmat import Seed, wishart_draw

from conftest import MASTER


def test_ratio_stats_perfect_alignment():
    A, B = sample_ratio_arrays(1.0, 10, 4, 200, Seed(MASTER, 300))
    assert np.all(A == 1.0)
    assert np.all(B >= 0.0)


def test_ratio_stats_B_mean():
    _, B = sample_ratio_arrays(0.5, 50, 8, 10**6, Seed(MASTER, 301))
    assert B.mean() == pytest.approx(57.0, rel=0.005)


def test_ratio_stats_A_is_student_t():
    A, _ = sample_ratio_arrays(0.5, 50, 8, 10**6, Seed(MASTER, 302))
    t_std = math.sqrt(8) * (A - 0.5) / math.sqrt(1 - 0.25)
    ks = stats.kstest(t_std, lambda x: stats.t.cdf(x, 8)).statistic
    assert ks < 0.005


def test_ratio_stats_against_direct_mechanism_simulation():
    # End-to-end check: build (A, B) from actual projected outputs y = M v and
    # compare the loss law with the representation-based sampler.
    rho, d, r, n = 0.8, 12, 5, 20000
    v = np.zeros(d)
    v[0] = 1.0
    vp = np.zeros(d)
    vp[0] = rho
    vp[1] = math.sqrt(1 - rho * rho)
    base = Seed(MASTER, 303)
    direct = np.empty(n)
    for i in range(n):
        y = wishart_draw(d, r, base.child(i)).M @ v
        direct[i] = privacy_loss(ratio_from_point(y, v, vp, r), d, r)
    A, B = sample_ratio_arrays(rho, d, r, n, Seed(MASTER, 304))
    modeled = privacy_loss_array(A, B, d, r)
    assert stats.ks_2samp(direct, modeled).statistic < 0.02


def test_ratio_stats_rejects_small_d():
    with pytest.raises(DomainError):
        sample_ratio_arrays(0.5, 2, 4, 10, Seed(1))


def test_privacy_loss_identity_cases():
    assert privacy_loss(RatioSample(1.0, 123.4), 40, 7) == 0.0
    assert privacy_loss(RatioSample(2.0, 0.0), 10, 9) == pytest.approx(math.log(2.0), rel=1e-15)
    assert privacy_loss(RatioSample(-0.5, 1.0), 10, 9) == math.inf
    with pytest.raises(DomainError):
        privacy_loss(RatioSample(math.nan, 1.0), 5, 2)
    arr = privacy_loss_array(np.array([1.0, -0.5]), np.array([3.0, 1.0]), 10, 9)
    assert arr[0] == 0.0 and arr[1] == math.inf


def test_delta_support_perfect_alignment():
    assert delta_support(1.0, 8, 100, Seed(MASTER, 310)) == (0.0, 0.0)


def test_delta_support_analytic_envelope():
    # With rho = 0.9999 and r = 128 the integrand is bounded by its value at
    # the lower 0.1% chi-square quantile plus that tail's mass.
    est, _ = delta_support(0.9999, 128, 10**5, Seed(MASTER, 311))
    scale = 0.9999 / math.sqrt(1 - 0.9999**2)
    q_low = stats.chi2.ppf(0.001, 128)
    envelope = stats.norm.cdf(-scale * math.sqrt(q_low)) + 0.001
    assert est <= envelope
    assert est < 1e-10


def test_delta_support_self_consistency():
    est1, se1 = delta_support(0.5, 4, 10**6, Seed(MASTER, 312))
    est2, se2 = delta_support(0.5, 4, 10**7, Seed(MASTER, 313))
    assert abs(est1 - est2) <= 3 * math.sqrt(se1**2 + se2**2)


def test_delta_support_rejects_nonpositive_rho():
    with pytest.raises(DomainError):
        delta_support(0.0, 4, 100, Seed(1))


def test_profile_perfect_alignment_is_zero():
    prof = mc_privacy_profile(1.0, 10, 3, [0.1, 1.0, 2.0], 10**4, Seed(MASTER, 320))
    assert np.all(prof.delta_hat == 0.0)


def test_profile_matches_ratio_sampler_by_construction():
    # The profile and the standalone sampler are the same estimator: rebuild
    # delta_hat from the chunk-seeded samples and compare exactly.
    rho, d, r, n = 0.95, 30, 6, 3 * 10**4
    eps_grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    seed = Seed(MASTER, 321)
    prof = mc_privacy_profile(rho, d, r, eps_grid, n, seed)
    losses = []
    for chunk_seed, size in _chunk_seeds(seed, n):
        A, B = sample_ratio_arrays(rho, d, r, size, chunk_seed)
        losses.append(privacy_loss_array(A, B, d, r))
    L = np.concatenate(losses)
    for eps, dh in zip(prof.eps_grid, prof.delta_hat):
        assert dh == np.count_nonzero(L > eps) / n


def test_profile_counts_support_failure_once():
    # Draws with A <= 0 carry L = +inf, so far in the tail delta_hat is the
    # support-failure mass P(A <= 0) = F_{t_r}(-rho sqrt(r) / sqrt(1 - rho^2))
    # counted once, within binomial error.
    rho, d, r, n = 0.8, 20, 2, 10**5
    prof = mc_privacy_profile(rho, d, r, [1e3], n, Seed(MASTER, 327))
    exact = float(stdtr(r, -rho * math.sqrt(r) / math.sqrt(1.0 - rho * rho)))
    assert abs(prof.delta_hat[0] - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)


def test_profile_is_nonincreasing_and_clamped():
    prof = mc_privacy_profile(0.9, 40, 8, np.linspace(0, 3, 31), 10**5, Seed(MASTER, 322))
    dh = list(prof.delta_hat)
    assert all(b <= a + 1e-15 for a, b in zip(dh, dh[1:]))
    assert all(0.0 <= v <= 1.0 for v in dh)


@settings(max_examples=60, deadline=None)
@given(
    eps_grid=hst.lists(
        hst.sampled_from([0.0, 0.5, 1.0, 3.0]) | hst.floats(min_value=-1.0, max_value=20.0),
        min_size=1,
        max_size=25,
    ),
    rho=hst.floats(min_value=0.05, max_value=1.0),
    d=hst.integers(3, 12),
    r=hst.integers(1, 12),
    n=hst.integers(2, 300),
    stream=hst.integers(0, 2**16),
)
def test_profile_nonincreasing_on_any_grid(eps_grid, rho, d, r, n, stream):
    # Unsorted grids with duplicates: the estimate is nonincreasing in eps
    # and a probability, with no isotonic correction applied.
    prof = mc_privacy_profile(rho, d, r, eps_grid, n, Seed(MASTER, 326 + stream))
    assert list(prof.eps_grid) == sorted(eps_grid)
    assert np.all(np.diff(prof.delta_hat) <= 0.0)
    assert np.all((prof.delta_hat >= 0.0) & (prof.delta_hat <= 1.0))


def test_profile_eps_at_delta_inversion():
    prof = mc_privacy_profile(0.99, 40, 8, np.linspace(0, 14, 141), 10**5, Seed(MASTER, 323))
    eps_hat = prof.eps_at_delta(0.01)
    idx = list(prof.eps_grid).index(eps_hat)
    assert prof.delta_hat[idx] <= 0.01
    assert idx == 0 or prof.delta_hat[idx - 1] > 0.01
    with pytest.raises(DomainError):
        prof.eps_at_delta(0.0)


def test_profile_eps_at_delta_rejects_unreachable_targets():
    prof = mc_privacy_profile(0.9, 20, 4, [0.0, 0.5], 10**3, Seed(MASTER, 328))
    with pytest.raises(DomainError, match="resolution"):
        prof.eps_at_delta(0.5e-3)  # below one hit in n
    with pytest.raises(DomainError, match="extend the eps grid"):
        prof.eps_at_delta(2e-3)  # resolvable, but beyond the grid


def test_profile_rejects_empty_or_nan_grid():
    for grid in ([], [math.nan, 1.0]):
        with pytest.raises(DomainError):
            mc_privacy_profile(0.9, 20, 4, grid, 10**3, Seed(MASTER, 329))


def test_profile_independent_of_thread_count():
    kwargs = dict(rho=0.95, d=20, r=4, eps_grid=[0.5, 1.0], n=2 * 10**4, seed=Seed(MASTER, 324))
    a = mc_privacy_profile(**kwargs, threads=1)
    b = mc_privacy_profile(**kwargs, threads=4)
    assert np.array_equal(a.delta_hat, b.delta_hat)
    # a request far above the CPU count is capped, not honoured
    c = mc_privacy_profile(**kwargs, threads=100000)
    assert np.array_equal(a.delta_hat, c.delta_hat)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Swap the profiler's thread pool for a serial stand-in; returns the max_workers it got."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(profiler, "ThreadPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize(
    "threads, cpus, n_chunks, workers",
    [(100000, 3, 10, 3), (2, 3, 10, 2), (8, 16, 4, 4), (4, None, 10, None), (1, 8, 10, None)],
)
def test_map_chunks_caps_worker_count(monkeypatch, pool_sizes, threads, cpus, n_chunks, workers):
    # the pool never exceeds the thread request, the CPU count or the chunk count;
    # None means the chunks run serially without a pool
    monkeypatch.setattr(profiler.os, "cpu_count", lambda: cpus)
    out = profiler._map_chunks(lambda c: 2 * c, list(range(n_chunks)), threads)
    assert out == [2 * c for c in range(n_chunks)]
    assert pool_sizes == ([] if workers is None else [workers])


def test_log_density_matches_privacy_loss():
    # ln p_v(y) - ln p_v'(y) must equal the loss at (A, B) built from (y, v, v').
    rng = Seed(MASTER, 330).generator()
    d, r = 15, 6
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    vp = rng.standard_normal(d)
    vp /= np.linalg.norm(vp)
    checked = 0
    while checked < 100:
        y = rng.standard_normal(d)
        if v @ y <= 0 or vp @ y <= 0:
            continue
        L = privacy_loss(ratio_from_point(y, v, vp, r), d, r)
        diff = log_density_mv(y, v, r, 1.0 / r) - log_density_mv(y, vp, r, 1.0 / r)
        assert diff == pytest.approx(L, abs=1e-9)
        checked += 1


def test_log_density_exponents_are_negatives():
    # The density exponent (r - d - 1)/2 and the loss coefficient (d - r + 1)/2
    # must be negatives of each other up to the +/-1 bookkeeping of the log ratio;
    # the identity test above enforces it, this pins the raw coefficients.
    d, r = 9, 4
    y = np.zeros(d)
    y[0] = 2.0
    v = np.zeros(d)
    v[0] = 1.0
    # scaling y -> c y changes ln p by ((r-d-1)/2) ln c - (quadratic term change)
    c = 3.0
    base = log_density_mv(y, v, r, 1.0)
    scaled = log_density_mv(c * y, v, r, 1.0)
    quad = -(c**2 * y @ y) / (2 * c * (v @ y)) + (y @ y) / (2 * (v @ y))
    assert scaled - base == pytest.approx((r - d - 1) / 2 * math.log(c) + quad, rel=1e-12)


def test_log_density_normalization_by_quadrature():
    # d = 3, r = 2, sigma^2 = 1, v = e1: midpoint rule over the supporting
    # half space x1 > 0, with an independently coded vectorized integrand.
    d, r = 3, 2
    log_const = -(
        r / 2 * math.log(2.0)
        + math.lgamma(r / 2)
        + (d + r - 1) / 2 * math.log(1.0)
        + (d - 1) / 2 * math.log(2 * math.pi)
    )

    def log_pdf(x1, x2, x3):
        return log_const + (r - d - 1) / 2 * np.log(x1) - (x1**2 + x2**2 + x3**2) / (2 * x1)

    h = 0.1
    x1 = np.arange(h / 2, 22.0, h)
    x23 = np.arange(-11.0 + h / 2, 11.0, h)
    grid = log_pdf(x1[:, None, None], x23[None, :, None], x23[None, None, :])
    total = float(np.exp(grid).sum() * h**3)
    assert total == pytest.approx(1.0, abs=0.02)
    # the same integrand is what the operation computes pointwise
    v = np.array([1.0, 0.0, 0.0])
    for y in ([0.7, 0.2, -0.4], [2.5, 1.0, 0.3], [0.05, 0.0, 0.0]):
        y = np.array(y)
        assert log_density_mv(y, v, r, 1.0) == pytest.approx(
            float(log_pdf(y[0], y[1], y[2])), rel=1e-12
        )


def test_log_density_scale_covariance():
    rng = Seed(MASTER, 331).generator()
    d, r, c = 6, 3, 2.0
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    y = rng.standard_normal(d)
    if v @ y < 0:
        y = -y
    lhs = log_density_mv(y, v, r, 1.0)
    rhs = log_density_mv(y / c, v, r, 1.0 / c) - d * math.log(c)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_log_density_outside_support():
    v = np.array([1.0, 0.0])
    with pytest.raises(OutsideSupportError):
        log_density_mv(np.array([-1.0, 0.5]), v, 2, 1.0)
    # a NaN output is not a point of the support either
    y_nan = np.array([math.nan, 0.5])
    with pytest.raises(DomainError):
        log_density_mv(y_nan, v, 2, 1.0)
    with pytest.raises(DomainError):
        ratio_from_point(y_nan, v, np.array([0.0, 1.0]), 2)


def test_profile_lies_below_certified_frontier():
    # At every grid eps, the estimated delta stays below the closed-form
    # frontier: the smallest delta' whose bound epsilon drops below that eps
    # prices the certified delta there. Frontier evaluated with scipy
    # quantiles (independent of the accountant's kernels).
    rho, d, r, n = 0.99, 60, 8, 2 * 10**5
    prof = mc_privacy_profile(rho, d, r, np.linspace(0.5, 6.0, 12), n, Seed(MASTER, 340))
    ds = float(stats.t.cdf(-rho * math.sqrt(r) / math.sqrt(1.0 - rho * rho), r))

    def eps_bound(delta_prime):
        t = stats.t.ppf(1 - delta_prime, r)
        if rho <= t / math.sqrt(r + t * t):
            return math.inf
        K = math.sqrt((1 - rho * rho) / r) * t
        b = stats.chi2.ppf(1 - delta_prime, d + r - 1)
        return (d - r + 1) / 2 * math.log(rho + K) + (1 - rho + K) * b / (2 * (rho - K))

    def frontier_delta(eps):
        lo, hi = 1e-12, 1.0 / 3.0
        if eps_bound(hi) > eps:
            return math.inf  # bound cannot certify this eps at any delta'
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if eps_bound(mid) <= eps:
                hi = mid
            else:
                lo = mid
        return ds + 3 * hi

    for eps, dh, se in zip(prof.eps_grid, prof.delta_hat, prof.stderr):
        assert dh <= frontier_delta(eps) + 3 * se
