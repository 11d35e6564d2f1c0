import os

import numpy as np
import pytest
from hypothesis import settings

from wishart_dp.randmat import Seed

# One master seed for the whole suite; substreams derive from it so tests stay
# independent of execution order.
MASTER = 20250809

# Property tests draw the same examples on every run by default, so a failure
# replays on any machine and never depends on a local example database.
# HYPOTHESIS_PROFILE=explore draws fresh examples, ten times as many, and
# prints the blob that reproduces a failure.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", deadline=None, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property test's example count: n by default, 10 n under the explore profile."""
    return 10 * n if PROFILE == "explore" else n


def capture_fraction_samples(d: int, r: int, u: np.ndarray, n: int, seed: Seed) -> np.ndarray:
    """n draws of ||P_M u||^2 for unit u, batched over stacked QR factorizations."""
    out = np.empty(n)
    done = 0
    chunk_idx = 0
    while done < n:
        b = min(2000, n - done)
        Zs = seed.child(chunk_idx).generator().standard_normal((b, d, r))
        Q = np.linalg.qr(Zs)[0]
        proj = np.einsum("bdr,d->br", Q, u)
        out[done : done + b] = np.einsum("br,br->b", proj, proj)
        done += b
        chunk_idx += 1
    return np.clip(out, 0.0, 1.0)


@pytest.fixture(scope="session")
def capture_samples_d100_r10() -> np.ndarray:
    """1e5 rank-1 capture fractions at (d=100, r=10); Beta(5, 45) in law."""
    u = np.zeros(100)
    u[0] = 1.0
    return capture_fraction_samples(100, 10, u, 10**5, Seed(MASTER, 6001))
