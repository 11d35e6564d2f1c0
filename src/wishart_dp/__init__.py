"""Wishart projection mechanisms for differential privacy.

Subpackages by concern: special-function wrappers (specialfn), seeded random
matrices (randmat), the randomized maps (mechanisms), closed-form accounting
(accountants), Monte Carlo profile estimation (profiler), empirical attacks
(attacks), private training loops (trainer), and the CLI (cli).
"""

__version__ = "0.1.0"

from .randmat import Seed, WishartDraw, wishart_draw  # noqa: F401
from .mechanisms import MechanismInput, NoisyMechParams, Variant  # noqa: F401
from .accountants import (  # noqa: F401
    AlignmentSpec,
    LargeRReport,
    SmallRReport,
    VecAccountReport,
    account_large_r,
    account_small_r,
    account_vec,
    choose_alpha,
    compose_basic,
    compose_gaussian_steps,
    gaussian_tradeoff,
)
from .profiler import PrivacyProfile, mc_privacy_profile  # noqa: F401
