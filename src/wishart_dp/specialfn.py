"""Special functions used by every accountant: checked wrappers over scipy.special.

Each wrapper validates its scalar arguments and raises DomainError for NaN,
infinite or out-of-domain input, then makes one library call (scipy.special,
or math.lgamma) and returns a Python float. scipy.special reports a domain
failure by returning NaN, so a NaN result (e.g. a subnormal dof whose half
rounds to 0) raises DomainError too: no wrapper ever returns NaN.

Only scipy.special is imported; scipy.stats and scipy.optimize would add
their import cost to every CLI start.
"""

from __future__ import annotations

import math

from scipy import special

from .errors import DomainError


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _require_prob_open(name: str, p: float) -> float:
    p = _require_finite(name, p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} must lie strictly in (0, 1), got {p!r}")
    return p


def _check_dof(nu: float) -> float:
    nu = _require_finite("nu", nu)
    if nu <= 0.0:
        raise DomainError(f"degrees of freedom must be > 0, got {nu!r}")
    return nu


def _not_nan(value, what: str) -> float:
    value = float(value)
    if math.isnan(value):
        raise DomainError(f"{what} is undefined (scipy.special returned NaN)")
    return value


def normal_cdf(x: float) -> float:
    """Standard normal CDF P(N(0,1) <= x)."""
    return float(special.ndtr(_require_finite("x", x)))


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF."""
    p = _require_prob_open("p", p)
    return _not_nan(special.ndtri(p), f"normal_quantile({p!r})")


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for z > 0."""
    z = _require_finite("z", z)
    if z <= 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z!r}")
    return math.lgamma(z)


def _check_beta_args(x: float, a: float, b: float) -> tuple[float, float, float]:
    x = _require_finite("x", x)
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"the incomplete beta requires a, b > 0, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"the incomplete beta requires 0 <= x <= 1, got {x!r}")
    return x, a, b


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x."""
    x, a, b = _check_beta_args(x, a, b)
    return _not_nan(special.betainc(a, b, x), f"reg_inc_beta({x!r}, {a!r}, {b!r})")


def reg_inc_betac(x: float, a: float, b: float) -> float:
    """Upper tail 1 - I_x(a, b) of the Beta(a, b) law, without cancellation."""
    x, a, b = _check_beta_args(x, a, b)
    return _not_nan(special.betaincc(a, b, x), f"reg_inc_betac({x!r}, {a!r}, {b!r})")


def student_t_cdf(nu: float, t: float) -> float:
    """CDF of the Student-t distribution with nu degrees of freedom."""
    nu = _check_dof(nu)
    t = _require_finite("t", t)
    return _not_nan(special.stdtr(nu, t), f"student_t_cdf({nu!r}, {t!r})")


def student_t_quantile(nu: float, p: float) -> float:
    """Inverse Student-t CDF."""
    nu = _check_dof(nu)
    p = _require_prob_open("p", p)
    return _not_nan(special.stdtrit(nu, p), f"student_t_quantile({nu!r}, {p!r})")


def chi2_cdf(nu: float, x: float) -> float:
    """CDF of the chi-square distribution with nu degrees of freedom."""
    nu = _check_dof(nu)
    x = _require_finite("x", x)
    return _not_nan(special.chdtr(nu, max(x, 0.0)), f"chi2_cdf({nu!r}, {x!r})")


def chi2_quantile(nu: float, p: float) -> float:
    """Inverse chi-square CDF, 2 P^{-1}(nu/2, p); always nonnegative.

    The lower-incomplete-gamma inverse keeps full relative accuracy in the
    lower tail, where chdtri(nu, 1 - p) loses digits to the rounding of 1 - p.
    """
    nu = _check_dof(nu)
    p = _require_prob_open("p", p)
    return _not_nan(2.0 * special.gammaincinv(nu / 2.0, p), f"chi2_quantile({nu!r}, {p!r})")
