"""Attack tests: separation of images, ROC machinery, canary protocol, MIA wiring."""

import math

import numpy as np
import pytest

from wishart_dp.attacks import (
    Canary,
    craft_canary,
    roc_auc,
    run_mia,
    separation_trial,
)
from wishart_dp.errors import DegenerateInputError, DomainError
from wishart_dp.randmat import Seed
from wishart_dp.trainer import DpTrainConfig, Mechanism, make_logistic_task, make_ridge_task

from conftest import MASTER


def test_separation_never_observes_equality():
    rng = Seed(MASTER, 500).generator()
    V = rng.standard_normal((8, 3))
    Vp = V.copy()
    Vp[:, 1] += rng.standard_normal(8)
    res = separation_trial(V, Vp, r=2, n_trials=10**4, seed=Seed(MASTER, 501))
    assert res.n_equal == 0
    assert res.n_trials == 10**4
    assert res.max_residual > 0.0


def test_separation_rank_one_difference():
    # A rank-1 difference reduces to Z^T u never vanishing.
    V = np.array([[1.0], [0.0]])
    Vp = np.array([[0.0], [0.0]])
    res = separation_trial(V, Vp, r=1, n_trials=5000, seed=Seed(MASTER, 502))
    assert res.n_equal == 0


def test_separation_scale_invariance():
    rng = Seed(MASTER, 503).generator()
    V = rng.standard_normal((6, 2))
    Vp = V + 1e-12 * rng.standard_normal((6, 2))
    res = separation_trial(V, Vp, r=3, n_trials=2000, seed=Seed(MASTER, 504))
    assert res.n_equal == 0


def test_separation_rejects_equal_inputs():
    V = np.ones((4, 2))
    with pytest.raises(DegenerateInputError):
        separation_trial(V, V.copy(), r=2, n_trials=10, seed=Seed(1))
    # a NaN in V' would count no equal draw and read as perfect separation
    Vp = V.copy()
    Vp[0, 0] = math.nan
    with pytest.raises(DomainError):
        separation_trial(V, Vp, r=2, n_trials=10, seed=Seed(1))


def test_roc_auc_perfect_separation():
    auc, bacc, _ = roc_auc([0.1, 0.2], [0.5, 0.9, 1.4])
    assert auc == 1.0
    assert bacc == 1.0


def test_roc_auc_identical_multisets():
    scores = [0.3, 0.7, 0.7, 1.2]
    auc, bacc, _ = roc_auc(scores, list(scores))
    assert auc == 0.5


def test_roc_auc_brute_force_pairs():
    # IN = {1, 3}, OUT = {2, 4}: wins 3 of 4 pairs.
    auc, _, _ = roc_auc([1.0, 3.0], [2.0, 4.0])
    assert auc == pytest.approx(0.75, abs=1e-15)


def test_roc_auc_complement_symmetry():
    rng = Seed(MASTER, 510).generator()
    a = rng.standard_normal(37)
    b = rng.standard_normal(51) + 0.4
    auc_ab = roc_auc(a, b)[0]
    auc_ba = roc_auc(b, a)[0]
    assert auc_ab + auc_ba == pytest.approx(1.0, abs=1e-12)


def test_roc_auc_balanced_accuracy_floor():
    # worst case stays at chance level by sweep construction
    auc, bacc, _ = roc_auc([1.0, 2.0], [1.0, 2.0])
    assert bacc >= 0.5


def test_roc_auc_rejects_empty():
    with pytest.raises(DomainError):
        roc_auc([], [1.0])
    # a NaN score on either side has no rank
    for s_in, s_out in (([math.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, math.nan])):
        with pytest.raises(DomainError):
            roc_auc(s_in, s_out)


@pytest.fixture(scope="module")
def small_task():
    return make_logistic_task(60, 10, 4, Seed(MASTER, 520), reg=1e-4)


@pytest.fixture(scope="module")
def small_cfg():
    return DpTrainConfig(T=40, eta=1.0, mechanism=Mechanism.NOISE_FREE_LORA, r=16)


def test_craft_canary_deterministic(small_task, small_cfg):
    c1 = craft_canary(small_task, small_cfg, Seed(MASTER, 521))
    c2 = craft_canary(small_task, small_cfg, Seed(MASTER, 521))
    assert np.array_equal(c1.x_q, c2.x_q)
    assert c1.y_q == c2.y_q
    assert c1.ref_seed == c2.ref_seed


def test_craft_canary_picks_least_likely_class(small_task, small_cfg):
    from wishart_dp import trainer as trainer_mod

    canary = craft_canary(small_task, small_cfg, Seed(MASTER, 522))
    W_ref = trainer_mod.fit(small_task, small_cfg, canary.ref_seed)
    scores = W_ref @ canary.x_q
    assert canary.y_q == int(np.argmin(scores))
    assert 0 <= canary.y_q < small_task.n_classes


def test_craft_canary_two_class_argmin():
    task = make_logistic_task(40, 6, 2, Seed(MASTER, 523))
    cfg = DpTrainConfig(T=30, eta=1.0, mechanism=Mechanism.NOISE_FREE_LORA, r=6)
    canary = craft_canary(task, cfg, Seed(MASTER, 524))
    from wishart_dp import trainer as trainer_mod

    W_ref = trainer_mod.fit(task, cfg, canary.ref_seed)
    scores = W_ref @ canary.x_q
    assert canary.y_q == (1 if scores[0] > scores[1] else 0)


def test_run_mia_reproducible(small_task, small_cfg):
    canary = craft_canary(small_task, small_cfg, Seed(MASTER, 525))
    r1 = run_mia(small_task, small_cfg, canary, 10, 10, Seed(MASTER, 526))
    r2 = run_mia(small_task, small_cfg, canary, 10, 10, Seed(MASTER, 526))
    assert np.array_equal(r1.scores_in, r2.scores_in)
    assert np.array_equal(r1.scores_out, r2.scores_out)
    assert r1.auc == r2.auc


def test_run_mia_noise_dominated_is_chance(small_task):
    # With enormous noise the mechanism output carries no membership signal.
    cfg = DpTrainConfig(
        T=10, eta=0.5, mechanism=Mechanism.NOISY_PROJ, sigma=1e4, clip=1.0, r=8
    )
    canary = Canary(
        x_q=Seed(MASTER, 527).generator().standard_normal(10), y_q=1, ref_seed=Seed(MASTER, 527)
    )
    res = run_mia(small_task, cfg, canary, 60, 60, Seed(MASTER, 528))
    se = res.auc_stderr()
    assert abs(res.auc - 0.5) <= 3 * max(se, 0.05)


# ---------------------------------------------------------------------------
# Input checks: each rejection raises its WishartDpError subclass and names the argument
# ---------------------------------------------------------------------------

_FREE = DpTrainConfig(T=5, eta=1.0, mechanism=Mechanism.NOISE_FREE_LORA, r=4)
_PROBE = Canary(x_q=np.ones(10), y_q=1, ref_seed=Seed(MASTER, 529))
_REJECTIONS = {
    "separation-shapes": (lambda: separation_trial(np.ones((4, 2)), np.ones((4, 3)), 2, 10, Seed(1)), "V"),
    "separation-trials": (lambda: separation_trial(np.ones(4), np.zeros(4), 2, 0, Seed(1)), "n_trials"),
    # a ridge task has one output, so no least likely class to label a canary with
    "canary-ridge-task": (lambda: craft_canary(make_ridge_task(10, 4, Seed(1)), _FREE, Seed(1)), "task"),
    "mia-n-in": (lambda: run_mia(make_logistic_task(20, 10, 3, Seed(1)), _FREE, _PROBE, 1, 2, Seed(1)), "n_in"),
    "mia-n-out": (lambda: run_mia(make_logistic_task(20, 10, 3, Seed(1)), _FREE, _PROBE, 2, 1, Seed(1)), "n_out"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_input_check_raises_and_names_the_argument(case):
    call, name = _REJECTIONS[case]
    with pytest.raises(DomainError, match=rf"\b{name}\b") as raised:
        call()
    assert raised.type is DomainError
