"""Special-function tests: frozen oracle values, round-trips, symmetry, domain
errors, and property tests of the scipy.special wrappers.

Oracles used here are independent of the implementation path: closed forms
(Cauchy quantile, the two-dof Student-t quantile, the chi-square-2 CDF, the
Beta(2,3) polynomial CDF), numerical integration of the normal density, and
classical identities (Gamma(1/2) = sqrt(pi)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wishart_dp import specialfn as sf
from wishart_dp.errors import DomainError

from conftest import examples


def test_normal_cdf_symmetry_point():
    assert sf.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_normal_cdf_saturation():
    assert sf.normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_against_quadrature():
    # Oracle: Simpson integration of the standard normal density on [-12, x].
    x = 1.959964
    grid = np.linspace(-12.0, x, 20001)
    dens = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
    h = grid[1] - grid[0]
    simpson = h / 3 * (dens[0] + dens[-1] + 4 * dens[1:-1:2].sum() + 2 * dens[2:-1:2].sum())
    assert simpson == pytest.approx(0.975, abs=1e-6)
    assert sf.normal_cdf(x) == pytest.approx(simpson, abs=1e-9)


def test_normal_cdf_rejects_nan():
    with pytest.raises(DomainError):
        sf.normal_cdf(float("nan"))


def test_t_quantile_median_is_zero():
    assert sf.student_t_quantile(5, 0.5) == 0.0


def test_t_quantile_cauchy_closed_form():
    # nu = 1 is Cauchy: quantile(p) = tan(pi (p - 1/2)).
    assert sf.student_t_quantile(1, 0.975) == pytest.approx(math.tan(math.pi * 0.475), abs=1e-3)


def test_t_quantile_two_dof_closed_form():
    p = 0.95
    oracle = math.copysign(math.sqrt(2.0 / (4.0 * p * (1 - p)) - 2.0), p - 0.5)
    assert oracle == pytest.approx(2.9200, abs=1e-3)
    assert sf.student_t_quantile(2, p) == pytest.approx(oracle, abs=1e-9)


def test_t_quantile_odd_symmetry():
    for nu in (1, 3, 17):
        for p in (0.01, 0.2, 0.45):
            assert sf.student_t_quantile(nu, 1 - p) == pytest.approx(
                -sf.student_t_quantile(nu, p), rel=1e-12
            )


def test_t_quantile_rejects_endpoint():
    with pytest.raises(DomainError):
        sf.student_t_quantile(4, 0.0)
    with pytest.raises(DomainError):
        sf.student_t_quantile(4, 1.0)


def test_chi2_quantile_two_dof_closed_form():
    # chi-square with 2 dof has CDF 1 - exp(-x/2).
    assert sf.chi2_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), rel=1e-12)


def test_chi2_quantile_one_dof_via_normal():
    p = 0.6826894921
    oracle = sf.normal_quantile((1 + p) / 2.0) ** 2
    assert sf.chi2_quantile(1, p) == pytest.approx(oracle, rel=1e-9)
    assert sf.chi2_quantile(1, p) == pytest.approx(1.0, abs=1e-6)


def test_chi2_quantile_lower_tail():
    q = sf.chi2_quantile(10, 1e-12)
    assert 0.0 < q < 1e-1


def test_chi2_quantile_rejects_endpoints():
    with pytest.raises(DomainError):
        sf.chi2_quantile(3, 1.0)


def test_reg_inc_beta_total_mass():
    for a, b in ((1.0, 1.0), (2.5, 7.0), (40.0, 0.5)):
        assert sf.reg_inc_beta(1.0, a, b) == 1.0
        assert sf.reg_inc_beta(0.0, a, b) == 0.0


def test_reg_inc_beta_uniform():
    assert sf.reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_reg_inc_beta_polynomial_oracle():
    # Beta(2, 3) CDF is the polynomial 6x^2 - 8x^3 + 3x^4.
    x = 0.25
    oracle = 6 * x**2 - 8 * x**3 + 3 * x**4
    assert oracle == pytest.approx(0.2617, abs=1e-4)
    assert sf.reg_inc_beta(x, 2.0, 3.0) == pytest.approx(oracle, rel=1e-12)


def test_reg_inc_beta_reflection():
    for x in (0.01, 0.2, 0.5, 0.77, 0.99):
        for a, b in ((0.5, 0.5), (2.0, 3.0), (32.0, 992.0)):
            lhs = sf.reg_inc_beta(x, a, b)
            rhs = 1.0 - sf.reg_inc_beta(1.0 - x, b, a)
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_reg_inc_beta_monotonicity():
    xs = np.linspace(0.0, 1.0, 41)
    vals = [sf.reg_inc_beta(float(x), 3.0, 5.0) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # decreasing in a at fixed (x, b)
    in_a = [sf.reg_inc_beta(0.4, a, 5.0) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a for a, b in zip(in_a, in_a[1:]))


def test_reg_inc_beta_rejects_bad_params():
    with pytest.raises(DomainError):
        sf.reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        sf.reg_inc_beta(1.5, 1.0, 1.0)


def test_log_gamma_values():
    assert sf.log_gamma(1.0) == 0.0
    assert sf.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)
    assert sf.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)


def test_log_gamma_recurrence():
    for z in (0.3, 1.7, 9.5, 123.0):
        assert sf.log_gamma(z + 1.0) == pytest.approx(sf.log_gamma(z) + math.log(z), rel=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        sf.log_gamma(0.0)


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.5, 0.99, 1 - 1e-6])
@pytest.mark.parametrize("nu", [1, 2, 5, 50, 500])
def test_quantile_cdf_roundtrip(nu, p):
    assert sf.student_t_cdf(nu, sf.student_t_quantile(nu, p)) == pytest.approx(p, abs=1e-9)
    assert sf.chi2_cdf(nu, sf.chi2_quantile(nu, p)) == pytest.approx(p, abs=1e-9)


def test_t_quantile_normal_limit():
    for p in (0.1, 0.5, 0.975):
        assert sf.student_t_quantile(1e6, p) == pytest.approx(sf.normal_quantile(p), abs=1e-4)


# ---------------------------------------------------------------------------
# Property tests of the scipy.special wrappers
# ---------------------------------------------------------------------------

_PROB = hst.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_POS = hst.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_REAL = hst.floats(min_value=-1e300, max_value=1e300)
_UNIT = hst.floats(min_value=0.0, max_value=1.0)
_NONFINITE = hst.sampled_from([math.nan, math.inf, -math.inf])
_NONPOS = hst.floats(min_value=-1e300, max_value=0.0)
_OUTSIDE_UNIT_CLOSED = hst.floats(min_value=1.0, max_value=1e300, exclude_min=True) | hst.floats(
    min_value=-1e300, max_value=0.0, exclude_max=True
)
_OUTSIDE_UNIT_OPEN = hst.floats(min_value=1.0, max_value=1e300) | _NONPOS

# wrapper -> per-argument (valid values, out-of-domain finite values or None)
_WRAPPERS = {
    "normal_cdf": [(_REAL, None)],
    "normal_quantile": [(_PROB, _OUTSIDE_UNIT_OPEN)],
    "log_gamma": [(_POS, _NONPOS)],
    "reg_inc_beta": [(_UNIT, _OUTSIDE_UNIT_CLOSED), (_POS, _NONPOS), (_POS, _NONPOS)],
    "reg_inc_betac": [(_UNIT, _OUTSIDE_UNIT_CLOSED), (_POS, _NONPOS), (_POS, _NONPOS)],
    "student_t_cdf": [(_POS, _NONPOS), (_REAL, None)],
    "student_t_quantile": [(_POS, _NONPOS), (_PROB, _OUTSIDE_UNIT_OPEN)],
    "chi2_cdf": [(_POS, _NONPOS), (_REAL, None)],
    "chi2_quantile": [(_POS, _NONPOS), (_PROB, _OUTSIDE_UNIT_OPEN)],
}


@settings(max_examples=examples(300))
@given(hst.data(), hst.sampled_from(sorted(_WRAPPERS)))
def test_wrappers_reject_bad_arguments(data, name):
    spec = _WRAPPERS[name]
    args = [data.draw(valid) for valid, _ in spec]
    pos = data.draw(hst.integers(0, len(spec) - 1))
    bad = spec[pos][1]
    args[pos] = data.draw(_NONFINITE if bad is None else _NONFINITE | bad)
    with pytest.raises(DomainError):
        getattr(sf, name)(*args)


@settings(max_examples=examples(500))
@given(hst.data(), hst.sampled_from(sorted(_WRAPPERS)))
def test_wrappers_never_return_nan(data, name):
    # In-domain arguments give a float that is not NaN, or DomainError where
    # scipy.special cannot evaluate them (e.g. a subnormal dof).
    args = [data.draw(valid) for valid, _ in _WRAPPERS[name]]
    try:
        value = getattr(sf, name)(*args)
    except DomainError:
        return
    assert isinstance(value, float)
    assert not math.isnan(value)


_ROUNDTRIP_DOF = hst.floats(min_value=0.5, max_value=1e4)
_ROUNDTRIP_P = hst.floats(min_value=1e-12, max_value=1.0 - 1e-12)


@settings(max_examples=examples(400))
@given(_ROUNDTRIP_DOF, _ROUNDTRIP_P)
def test_t_roundtrip_property(nu, p):
    assert sf.student_t_cdf(nu, sf.student_t_quantile(nu, p)) == pytest.approx(
        p, rel=1e-9, abs=1e-9 * min(p, 1.0 - p)
    )


@settings(max_examples=examples(400))
@given(_ROUNDTRIP_DOF, _ROUNDTRIP_P)
def test_chi2_roundtrip_property(nu, p):
    assert sf.chi2_cdf(nu, sf.chi2_quantile(nu, p)) == pytest.approx(
        p, rel=1e-9, abs=1e-9 * min(p, 1.0 - p)
    )


def test_chi2_quantile_lower_tail_full_accuracy():
    # chi2_1 CDF is erf(sqrt(x/2)); at x = 2e-24 the CDF is 2 sqrt(1e-24 / pi)
    # to 1e-24 relative, so the quantile at that p is 2e-24 to that accuracy.
    p = 2.0 * math.sqrt(1e-24 / math.pi)
    assert sf.chi2_quantile(1, p) == pytest.approx(2e-24, rel=1e-10)


def test_reg_inc_betac_keeps_tiny_tails():
    # Beta(1, b) survival is (1 - x)^b in closed form.
    assert sf.reg_inc_betac(0.9, 1.0, 40.0) == pytest.approx(0.1**40, rel=1e-12)
    assert 1.0 - sf.reg_inc_beta(0.9, 1.0, 40.0) == 0.0
