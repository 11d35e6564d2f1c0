"""Training-loop tests: frozen-factor algebra, chain rule, DP reductions, budgets."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wishart_dp import accountants, mechanisms, trainer
from wishart_dp.accountants import (
    compose_gaussian_steps,
    delta_M_bound,
    gaussian_tradeoff,
    max_gaussian_mu,
)
from wishart_dp.errors import ConfigError, DomainError
from wishart_dp.randmat import Seed, wishart_draw
from wishart_dp.trainer import (
    FULL_BATCH,
    NOISY_PROJ_BLOCK,
    DpTrainConfig,
    Mechanism,
    TaskKind,
    TrainTask,
    _batch_indices,
    _clipped_mean_grad_B,
    _lora_fa_sigma,
    budget_spent,
    dp_lora_fa,
    fit,
    load_config,
    make_logistic_task,
    make_ridge_task,
    noisy_proj,
    rp_gd,
    train,
)

from conftest import MASTER


@pytest.fixture()
def ridge_task():
    return make_ridge_task(100, 16, Seed(MASTER, 400), reg=1e-3)


def _shape(d, n_out=1):
    """A one-example task of d features and n_out outputs, all that budget_spent reads of a task."""
    return TrainTask(kind=TaskKind.LOGISTIC, n_features=d, n_classes=n_out, X=np.zeros((1, d)), y=np.zeros(1))


def _capture_candidates(r, d, n_out):
    """(share, per-step capture failure) of each capture price budget_spent tries.

    32 shares whose gaps above the mean r/d of Beta(r/2, (d-r)/2) grow
    geometrically from half its standard deviation to just below 1 - r/d,
    and 1.5 r/d; none when r >= d. The failure is a union over min(n_out, d) directions.
    """
    if r >= d:
        return []
    mean = r / d
    sd = math.sqrt(mean * (1.0 - mean) / (d / 2.0 + 1.0))
    shares = [mean + gap for gap in np.geomspace(0.5 * sd, 1.0 - mean, 33)[:-1].tolist()] + [1.5 * mean]
    return [(a, delta_M_bound(min(n_out, d), a, r, d)) for a in shares if a < 1.0]


def _cheapest(mu, t, eps, candidates):
    """The smallest scalar price of t steps over the plain candidate (1, 0) and the capture ones."""
    return min(compose_gaussian_steps(t * (a * mu), t, eps, fail) for a, fail in [(1.0, 0.0), *candidates])


def _at_most(got, bound):
    """got <= bound, up to the rounding of budget_spent's array pass: a relative 1e-12, absolute 1e-300."""
    return got <= bound + max(1e-12 * bound, 1e-300)


def _frozen_factor(r, stream):
    """The (r x 16) frozen LoRA factor A drawn from Seed(MASTER, stream)."""
    return wishart_draw(16, r, Seed(MASTER, stream)).Z.T


def test_lora_step_weight_identity(ridge_task):
    # One step from B = 0 moves the weights by -eta grad (A^T A).
    A = _frozen_factor(8, 402)
    g = ridge_task.grad_W(np.zeros((1, 16)))
    cfg = DpTrainConfig(T=1, eta=0.2, mechanism=Mechanism.NOISE_FREE_LORA, r=8)
    [(W1, _)] = dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 402))
    rhs = -0.2 * g @ (A.T @ A)
    assert np.linalg.norm(W1 - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_lora_step_shape_mismatch(ridge_task):
    # a frozen factor whose width is not the task's feature count is rejected
    A = wishart_draw(12, 8, Seed(MASTER, 403)).Z.T
    cfg = DpTrainConfig(T=1, eta=0.1, mechanism=Mechanism.NOISE_FREE_LORA, r=8)
    with pytest.raises(DomainError):
        next(dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 403)))


def test_chain_rule_against_finite_differences(ridge_task):
    # grad_B from the chain rule matches central differences of L(B A) at B = 0.
    A = _frozen_factor(4, 404)
    B = np.zeros((1, 4))
    grad_B = ridge_task.grad_W(B @ A) @ A.T
    h = 1e-6
    for i in range(B.shape[0]):
        for j in range(B.shape[1]):
            Bp = B.copy()
            Bp[i, j] += h
            Bm = B.copy()
            Bm[i, j] -= h
            lp = ridge_task.loss(Bp @ A)
            lm = ridge_task.loss(Bm @ A)
            fd = (lp - lm) / (2 * h)
            assert fd == pytest.approx(grad_B[i, j], rel=1e-5, abs=1e-10)


def test_frozen_factor_invariant(ridge_task):
    A = _frozen_factor(8, 405)
    a_before = A.copy()
    cfg = DpTrainConfig(T=25, eta=0.05, mechanism=Mechanism.DP_LORA_FA, sigma=0.0, r=8)
    steps = list(dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 406)))
    assert np.array_equal(A, a_before)
    # every W = B A lies in the row space of A: projecting onto it changes nothing
    row_proj = np.linalg.pinv(A) @ A
    for W, _ in steps:
        assert np.linalg.norm(W @ row_proj - W) <= 1e-10 * max(np.linalg.norm(W), 1e-12)


def test_effective_weight_accumulation_identity(ridge_task):
    # W_T - W_0 = -eta sum_t grad_W(W_t) (A^T A) for the noise-free loop.
    A = _frozen_factor(8, 407)
    cfg = DpTrainConfig(T=30, eta=0.05, mechanism=Mechanism.DP_LORA_FA, sigma=0.0, r=8)
    gram = A.T @ A
    acc = ridge_task.grad_W(np.zeros((1, 16)))
    steps = list(dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 408)))
    for W, _ in steps[:-1]:
        acc += ridge_task.grad_W(W)
    rhs = -cfg.eta * acc @ gram
    lhs = steps[-1][0]
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-12)


def test_dp_lora_fa_reduces_to_noise_free_bitwise(ridge_task):
    dp_cfg = DpTrainConfig(
        T=20, eta=0.05, mechanism=Mechanism.DP_LORA_FA, sigma=0.0, clip=math.inf, r=8
    )
    free_cfg = DpTrainConfig(T=20, eta=0.05, mechanism=Mechanism.NOISE_FREE_LORA, r=8)
    W_dp = fit(ridge_task, dp_cfg, Seed(MASTER, 410))
    W_free = fit(ridge_task, free_cfg, Seed(MASTER, 410))
    assert np.array_equal(W_dp, W_free)
    assert budget_spent(dp_cfg, ridge_task) == budget_spent(free_cfg, ridge_task) == [(math.inf, 0.0)] * 20
    # the LoRA loop serves the two LoRA mechanisms and no other
    rp_cfg = DpTrainConfig(T=20, eta=0.05, mechanism=Mechanism.RP_GD, r=8)
    with pytest.raises(ConfigError):
        next(dp_lora_fa(ridge_task, _frozen_factor(8, 410), rp_cfg, Seed(MASTER, 410)))


def test_dp_lora_fa_matches_plain_gd_loop(ridge_task):
    # Independent oracle: plain full-batch LoRA-FA GD, B <- B - eta grad_W(B A) A^T.
    A = _frozen_factor(8, 411)
    cfg = DpTrainConfig(
        T=25, eta=0.05, mechanism=Mechanism.DP_LORA_FA, sigma=0.0, clip=math.inf, r=8
    )
    *_, (W_dp, _) = dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 412))
    B = np.zeros((1, 8))
    for _ in range(25):
        B = B - 0.05 * (ridge_task.grad_W(B @ A) @ A.T)
    assert np.linalg.norm(W_dp - B @ A) <= 1e-10 * max(np.linalg.norm(B @ A), 1e-12)


def test_dp_lora_fa_noise_dominates_at_huge_sigma(ridge_task):
    A = _frozen_factor(8, 413)
    cfg = DpTrainConfig(
        T=10, eta=0.01, mechanism=Mechanism.DP_LORA_FA, sigma=1e6, clip=1.0, r=8,
        delta_target=1e-5,
    )
    *_, (W, _) = dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 414))
    init_loss = ridge_task.loss(np.zeros((1, 16)))
    assert ridge_task.loss(W) > 10 * init_loss  # utility collapses
    # without an eps_target the run is priced at eps = 1: enormous noise buys a tiny delta
    eps, delta = budget_spent(cfg, ridge_task)[cfg.T - 1]
    assert eps == 1.0 and delta < 1e-12


def test_dp_lora_fa_budget_composition():
    # the target covers the whole run: the calibrated sigma = 2 clip sqrt(T / mu*)
    # makes the T steps' mu sum to mu*, and step t spends T(eps; t mu* / T)
    cfg = DpTrainConfig(
        T=7, eta=0.05, mechanism=Mechanism.DP_LORA_FA, eps_target=0.5, delta_target=1e-6,
        clip=1.0, r=4,
    )
    mu = max_gaussian_mu(0.5, 1e-6)
    assert _lora_fa_sigma(cfg) == pytest.approx(2.0 * math.sqrt(7 / mu), rel=1e-15)
    budgets = budget_spent(cfg, _shape(16))
    assert [eps for eps, _ in budgets] == [0.5] * 7
    for t, (_, delta) in enumerate(budgets, 1):
        assert delta == pytest.approx(gaussian_tradeoff(0.5, t * mu / 7), rel=1e-12)
    assert budgets[-1][1] <= 1e-6


def test_dp_lora_fa_budget_bisects_once_per_run(monkeypatch):
    # the README config: one calibration prices all 50 steps, none per step
    cfg = DpTrainConfig(
        T=50, eta=0.1, mechanism=Mechanism.DP_LORA_FA, eps_target=8.0, delta_target=1e-5,
        clip=2.0, r=8,
    )
    calls = []

    def counted(eps, delta):
        calls.append((eps, delta))
        return max_gaussian_mu(eps, delta)

    monkeypatch.setattr(accountants, "max_gaussian_mu", counted)
    budgets = budget_spent(cfg, _shape(32))
    assert calls == [(8.0, 1e-5)]
    assert len(budgets) == 50
    assert budgets[-1][0] == 8.0 and budgets[-1][1] <= 1e-5


@settings(max_examples=100, deadline=None)
@given(
    eps=hst.floats(min_value=0.1, max_value=20.0),
    log_delta=hst.floats(min_value=-10.0, max_value=-2.0),
    T=hst.integers(min_value=1, max_value=500),
    clip=hst.floats(min_value=0.1, max_value=10.0),
)
def test_dp_lora_fa_calibration_meets_its_target(eps, log_delta, T, clip):
    delta = 10.0**log_delta
    cfg = DpTrainConfig(
        T=T, eta=0.1, mechanism=Mechanism.DP_LORA_FA, eps_target=eps, delta_target=delta, clip=clip
    )
    budgets = budget_spent(cfg, _shape(16))
    assert len(budgets) == T and all(e == eps for e, _ in budgets)
    deltas = [dl for _, dl in budgets]
    assert deltas[-1] <= delta
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))
    # 1% less noise overspends the target
    ratio = 2.0 * clip / (0.99 * _lora_fa_sigma(cfg))
    assert compose_gaussian_steps(T * ratio * ratio, T, eps, 0.0) > delta


def test_dp_lora_fa_per_example_clip_bound(ridge_task):
    # Every clipped per-example contribution stays within the threshold.
    A = _frozen_factor(8, 417)
    beta = 0.05
    gW = ridge_task.per_example_grad_W(np.zeros((1, 16)))
    gB = np.einsum("bnd,rd->bnr", gW, A)
    norms = np.sqrt(np.einsum("bnr,bnr->b", gB, gB))
    factors = np.minimum(1.0, beta / norms)
    clipped = norms * factors
    assert np.all(clipped <= beta + 1e-12)
    assert np.any(norms > beta)  # the threshold actually binds somewhere


def test_poisson_subsampling_mean_batch(ridge_task):
    from wishart_dp.trainer import _batch_indices

    cfg = DpTrainConfig(T=1, eta=0.1, batch=20, mechanism=Mechanism.DP_LORA_FA, sigma=0.0)
    base = Seed(MASTER, 418)
    sizes = []
    for i in range(10**4):
        idx, _ = _batch_indices(ridge_task, cfg, base.child(i).generator())
        sizes.append(len(idx))
    mean = float(np.mean(sizes))
    q = 20 / ridge_task.n_examples
    se = math.sqrt(ridge_task.n_examples * q * (1 - q) / len(sizes))
    assert abs(mean - 20.0) <= 3 * se


def test_dp_lora_fa_decreases_loss_within_budget(ridge_task):
    # Non-private GD sets the attainable decrease; the private run at modest
    # noise gets a healthy fraction of it.
    A = _frozen_factor(8, 419)
    f_cfg = DpTrainConfig(T=50, eta=0.1, mechanism=Mechanism.DP_LORA_FA, sigma=0.0, r=8)
    *_, (W_free, _) = dp_lora_fa(ridge_task, A, f_cfg, Seed(MASTER, 420))
    init_loss = ridge_task.loss(np.zeros((1, 16)))
    free_loss = ridge_task.loss(W_free)
    assert free_loss < 0.8 * init_loss
    cfg = DpTrainConfig(
        T=50, eta=0.1, mechanism=Mechanism.DP_LORA_FA, eps_target=8.0, delta_target=1e-5,
        clip=2.0, r=8,
    )
    *_, (W, _) = dp_lora_fa(ridge_task, A, cfg, Seed(MASTER, 421))
    assert ridge_task.loss(W) <= 0.8 * init_loss


def test_noisy_proj_step_requires_config():
    # a missing or zero sigma and an unbounded clip are rejected when the config is built
    for extra in ({"clip": 1.0}, {"sigma": 0.0, "clip": 1.0}, {"sigma": 0.5}):
        with pytest.raises(ConfigError):
            DpTrainConfig(T=1, eta=0.1, mechanism=Mechanism.NOISY_PROJ, r=4, **extra)
    # the loop takes only its own mechanism, and weights of the task's shape
    task = make_ridge_task(30, 8, Seed(MASTER, 433))
    rp_cfg = DpTrainConfig(T=1, eta=0.1, mechanism=Mechanism.RP_GD)
    with pytest.raises(ConfigError):
        next(noisy_proj(task, np.zeros((1, 8)), rp_cfg, Seed(1)))
    cfg = DpTrainConfig(T=1, eta=0.1, mechanism=Mechanism.NOISY_PROJ, r=4, sigma=0.5, clip=1.0)
    with pytest.raises(DomainError):
        next(noisy_proj(task, np.zeros((1, 9)), cfg, Seed(1)))


def test_noisy_proj_step_zero_clip_limit():
    # A tiny clipping threshold leaves an essentially pure projected-noise update.
    task = make_ridge_task(30, 8, Seed(MASTER, 433))
    W = Seed(MASTER, 434).generator().standard_normal((1, 8))
    cfg = DpTrainConfig(T=1, eta=1.0, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1e-12, r=4)
    [(W2, g)] = noisy_proj(task, W, cfg, Seed(MASTER, 435))
    assert g is None
    gen = Seed(MASTER, 435).child(0).child(0).generator()
    Z = gen.standard_normal((8, 4)) * math.sqrt(0.25)
    xi = gen.standard_normal((8, 1)) * 0.5
    pure_noise_update = (xi.T @ (Z @ Z.T)).reshape(1, 8)
    assert np.abs((W - W2) - pure_noise_update).max() < 1e-9


def _m2_step(task, cfg, W, seed):
    """One noisy-projection step from W, rebuilt from its parts.

    The Poisson batch draws from seed, then the gradient's M2 release from seed.child(0).
    """
    idx, _ = _batch_indices(task, cfg, seed.generator())
    return W - cfg.eta * mechanisms.noisy_mech(task.grad_W(W, idx).T, cfg._m2_params, seed.child(0)).T


def test_noisy_proj_step_equals_m2_mechanism_bitwise():
    # d = 12, r = 6 samples the direct path and d = 128, r = 64 the sketch; a
    # Poisson batch draws from the step's seed before the mechanism resets it
    for d, r, batch in [(12, 6, FULL_BATCH), (128, 64, FULL_BATCH), (12, 6, 10)]:
        task = make_ridge_task(40, d, Seed(MASTER, 436))
        cfg = DpTrainConfig(
            T=2, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=0.4, clip=0.7, r=r, batch=batch,
            eps_target=None, delta_target=None,
        )
        assert cfg._m2_params == mechanisms.NoisyMechParams(
            variant=mechanisms.Variant.M2, r=r, sigma_G=0.4, clip_beta=0.7
        )
        # noisy_proj's step t from any W draws from seed.child(t)
        W = Seed(MASTER, 437).generator().standard_normal((1, d))
        step_seed = Seed(MASTER, 438)
        (W1, _), (W2, _) = noisy_proj(task, W, cfg, step_seed)
        assert np.array_equal(W1, _m2_step(task, cfg, W, step_seed.child(0)))
        assert np.array_equal(W2, _m2_step(task, cfg, W1, step_seed.child(1)))
        # train runs the same steps from W = 0, step t drawing from seed.child(1).child(t)
        run_seed = Seed(MASTER, 439)
        (W1, _), (W2, _) = train(task, cfg, run_seed)
        assert np.array_equal(W1, _m2_step(task, cfg, np.zeros((1, d)), run_seed.child(1).child(0)))
        assert np.array_equal(W2, _m2_step(task, cfg, W1, run_seed.child(1).child(1)))
    # the step is priced at sensitivity 2 * clip, mu = (2 clip)^2 / sigma^2: the
    # cheapest of the plain price and the capture prices, the capture failing
    # for the rank-1 difference of a scalar-output task
    cfg = DpTrainConfig(T=1, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=0.4, clip=0.7, r=6)
    expected = _cheapest((2 * 0.7) ** 2 / 0.4**2, 1, 1.0, _capture_candidates(6, 12, 1))
    assert budget_spent(cfg, _shape(12))[0][1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "r, batch, path",
    [(16, FULL_BATCH, mechanisms.FOLD), (64, FULL_BATCH, mechanisms.SKETCH), (4, 30, mechanisms.FOLD)],
)
def test_train_noisy_proj_blocks_equal_single_steps(r, batch, path):
    # train draws the steps a block at a time; each step it yields equals
    # _m2_step's from the previous weights, bit for bit, across a whole block
    # and the 3-step remainder of T = 19
    task = make_logistic_task(60, 128, 10, Seed(MASTER, 440))
    assert mechanisms._path(mechanisms.Variant.M2, 128, r, 10) == path
    cfg = DpTrainConfig(T=19, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1.0, r=r, batch=batch)
    assert cfg.T % NOISY_PROJ_BLOCK != 0
    run_seed = Seed(MASTER, 441)
    W = np.zeros((10, 128))
    for t, (W_t, g) in enumerate(train(task, cfg, run_seed)):
        W = _m2_step(task, cfg, W, run_seed.child(1).child(t))
        assert g is None and np.array_equal(W_t, W)
    assert t == cfg.T - 1


# path -> (task, rank) on which noisy projection's M2 takes that path
_LOGISTIC_128 = make_logistic_task(60, 128, 10, Seed(MASTER, 440))
_BLOCK_SHAPES = {
    mechanisms.FOLD: (_LOGISTIC_128, 4),
    mechanisms.SKETCH: (_LOGISTIC_128, 64),
    mechanisms.DIRECT: (make_ridge_task(40, 12, Seed(MASTER, 436)), 6),
}


@settings(max_examples=30, deadline=None)
@given(
    path=hst.sampled_from(sorted(_BLOCK_SHAPES)),
    T=hst.integers(1, 40),
    batch=hst.sampled_from([FULL_BATCH, 30]),
)
def test_train_noisy_proj_does_not_depend_on_the_block_size(path, T, batch):
    task, r = _BLOCK_SHAPES[path]
    assert mechanisms._path(mechanisms.Variant.M2, task.n_features, r, task.n_out) == path
    cfg = DpTrainConfig(T=T, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1.0, r=r, batch=batch)
    expect = [W for W, _ in train(task, cfg, Seed(MASTER, 442))]
    for block in (1, 5, T + 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "NOISY_PROJ_BLOCK", block)
            got = [W for W, _ in train(task, cfg, Seed(MASTER, 442))]
        assert len(got) == T and all(np.array_equal(a, b) for a, b in zip(got, expect))


def test_noisy_proj_multi_step_budget():
    # two outputs: a difference of rank <= 2, so each capture fails with
    # probability delta_M_bound(2, ...); step t reports the cheapest candidate
    cfg = DpTrainConfig(T=5, eta=0.1, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1.0, r=8)
    mu = 2.0**2 / 0.25
    candidates = _capture_candidates(8, 100, 2)
    assert len(candidates) == 33 and all(0.08 < a < 1.0 for a, _ in candidates)
    budgets = budget_spent(cfg, _shape(100, 2))
    for t, (_, delta) in enumerate(budgets, 1):
        assert delta == pytest.approx(_cheapest(mu, t, 1.0, candidates), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    mechanism=hst.sampled_from([Mechanism.DP_LORA_FA, Mechanism.NOISY_PROJ]),
    d=hst.integers(2, 300),
    n_out=hst.integers(1, 12),
    r_share=hst.floats(0.0, 1.5),
    T=hst.integers(1, 300),
    log_sigma=hst.floats(-1.0, 2.0),
    clip=hst.floats(0.1, 10.0),
    eps=hst.floats(0.1, 20.0),
)
def test_budget_is_the_smaller_of_the_plain_and_capture_prices(
    mechanism, d, n_out, r_share, T, log_sigma, clip, eps
):
    r = max(1, round(r_share * d))  # r >= d leaves only the plain price
    if mechanism is Mechanism.DP_LORA_FA:
        cfg = DpTrainConfig(T=T, eta=0.1, mechanism=mechanism, clip=clip, r=r,
                            eps_target=eps, delta_target=1e-5)
        sigma = _lora_fa_sigma(cfg)
    else:
        sigma = 10.0**log_sigma
        cfg = DpTrainConfig(T=T, eta=0.1, mechanism=mechanism, sigma=sigma, clip=clip, r=r,
                            eps_target=eps, delta_target=1e-5)
    ratio = 2.0 * clip / sigma
    mu = ratio * ratio
    noisy = mechanism is Mechanism.NOISY_PROJ
    candidates = _capture_candidates(r, d, n_out) if noisy else []
    former = min(1.0, 1.5 * r / d)  # the former default share
    budgets = budget_spent(cfg, _shape(d, n_out))
    assert len(budgets) == T and all(e == eps for e, _ in budgets)
    for t, (_, delta) in enumerate(budgets, 1):
        plain = compose_gaussian_steps(t * mu, t, eps, 0.0)
        assert _at_most(delta, plain)
        if noisy and former < 1.0:
            capture = compose_gaussian_steps(t * (former * mu), t, eps, delta_M_bound(min(n_out, d), former, r, d))
            assert _at_most(delta, capture)
        cheapest = _cheapest(mu, t, eps, candidates)
        assert abs(delta - cheapest) <= max(1e-12 * cheapest, 1e-300)
    # T(eps; mu) rises with mu, but its two tails' rounded sum can fall by an
    # ulp where one tail saturates near 1
    deltas = [dl for _, dl in budgets]
    assert all(a <= b * (1.0 + 4.0 * sys.float_info.epsilon) for a, b in zip(deltas, deltas[1:]))


def test_noisy_proj_budget_pinned_values():
    # criterion 10's shape at sigma = 10. Ten outputs make a capture fail with
    # probability up to ten Beta tails, yet the best share still beats the
    # plain Gaussian price T(8; 200 (2 / 10)^2), which the former default
    # share 1.5 r/d could not
    cfg = DpTrainConfig(T=200, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=10.0, clip=1.0, r=16,
                        eps_target=8.0, delta_target=1e-5)
    plain = gaussian_tradeoff(8.0, 200 * 0.2**2)
    assert plain == pytest.approx(0.0787, abs=5e-5)
    former = compose_gaussian_steps(200 * 0.1875 * 0.2**2, 200, 8.0, delta_M_bound(10, 0.1875, 16, 128))
    assert former == 1.0
    eps, delta = budget_spent(cfg, _shape(128, 10))[-1]
    assert eps == 8.0 and delta <= 5e-4
    # a scalar output's difference has rank 1: a capture fails with
    # probability delta_M_bound(1, ...), at most a tenth of the ten-direction union
    _, delta = budget_spent(cfg, _shape(128))[-1]
    assert delta <= 4e-4


def test_clipping_the_whole_gradient_raises_the_rank_of_a_replaced_example():
    # Criterion 10's task at W = 0. Replacing one example moves the batch-mean
    # gradient by (p' x'^T - p x^T) / n, of rank <= 2. Clipped as one matrix,
    # the difference c G - c' G' also carries G itself, so its rank reaches
    # n_out - 1 (softmax gradients' rows sum to 0): the capture price may
    # assume rank min(n_out, d), not 2.
    task = make_logistic_task(100, 128, 10, Seed(MASTER, 9000).child(15), reg=1e-4)
    X, y = task.X.copy(), task.y.copy()
    X[0], y[0] = Seed(MASTER, 490).generator().standard_normal(128), (y[0] + 1) % 10
    neighbour = TrainTask(kind=task.kind, n_features=128, n_classes=10, X=X, y=y, reg=task.reg)
    W = np.zeros((10, 128))
    G, G2 = task.grad_W(W).T, neighbour.grad_W(W).T
    assert 1.0 < np.linalg.norm(G) < 1.3 and 1.0 < np.linalg.norm(G2) < 1.3

    def rank(D):
        return int(np.linalg.matrix_rank(D, tol=1e-9 * np.linalg.norm(D, 2)))

    assert rank(G - G2) <= 2
    assert rank(mechanisms.clip_frobenius(G, 1.0) - mechanisms.clip_frobenius(G2, 1.0)) > 2


def _rp_cfg(eta, T, r):
    return DpTrainConfig(T=T, eta=eta, mechanism=Mechanism.RP_GD, r=r)


def test_rp_gd_stationary_point():
    task = make_ridge_task(50, 8, Seed(MASTER, 440), noise=0.0, reg=0.0)
    w_star = task.ridge_optimum()
    steps = rp_gd(task, w_star, _rp_cfg(0.05, 10, 8), Seed(MASTER, 441))
    losses = [task.loss(w[None, :]) for w, _ in steps]
    assert max(losses) - min(losses) < 1e-20


def test_rp_gd_tracks_plain_gd(ridge_task):
    # Per-step redraws make the projected update unbiased (E[M] = I), so the
    # averaged trajectory tracks plain GD.
    d, T, eta = 16, 500, 1e-2
    w = np.zeros(d)
    for _ in range(T):
        w = w - eta * ridge_task.grad_W(w[None, :])[0]
    final_plain = ridge_task.loss(w[None, :])
    ratios = []
    for s in range(20):
        *_, (w, _) = rp_gd(ridge_task, np.zeros(d), _rp_cfg(eta, T, d), Seed(MASTER, 442).child(s))
        ratios.append(ridge_task.loss(w[None, :]) / final_plain)
    assert float(np.mean(ratios)) <= 1.1


def test_rp_gd_rank_one_confinement():
    # at r = 1 step t moves w along its own factor column z_t alone, so five
    # steps from 0 stay in the span of the five columns drawn
    task = make_ridge_task(40, 10, Seed(MASTER, 443))
    *_, (w, _) = rp_gd(task, np.zeros(10), _rp_cfg(0.05, 5, 1), Seed(MASTER, 444))
    Z = np.hstack([wishart_draw(10, 1, Seed(MASTER, 444).child(t)).Z for t in range(5)])
    Q, _ = np.linalg.qr(Z)
    assert np.linalg.norm(w) > 1e-3
    assert np.linalg.norm(w - Q @ (Q.T @ w)) < 1e-10 * np.linalg.norm(w)


def test_fit_dispatches_all_mechanisms():
    task = make_logistic_task(40, 8, 3, Seed(MASTER, 460))
    for mech, extra in (
        (Mechanism.NOISE_FREE_LORA, {}),
        (Mechanism.DP_LORA_FA, {"sigma": 0.1, "clip": 1.0, "delta_target": 1e-5}),
        (Mechanism.NOISY_PROJ, {"sigma": 0.1, "clip": 1.0}),
    ):
        cfg = DpTrainConfig(T=5, eta=0.2, mechanism=mech, r=4, **extra)
        W = fit(task, cfg, Seed(MASTER, 461))
        assert W.shape == (3, 8)
        assert np.all(np.isfinite(W))
        assert np.array_equal(W, fit(task, cfg, Seed(MASTER, 461)))


@pytest.mark.parametrize("mech, extra", [
    (Mechanism.NOISE_FREE_LORA, {}),
    (Mechanism.DP_LORA_FA, {"sigma": 0.1, "clip": 1.0, "batch": 10}),
    (Mechanism.NOISY_PROJ, {"sigma": 0.1, "clip": 1.0}),
    (Mechanism.RP_GD, {}),
])
def test_train_yields_every_step(mech, extra):
    # one (weights, gradient) pair per step; fit returns the last weights
    task = make_ridge_task(40, 8, Seed(MASTER, 462))
    cfg = DpTrainConfig(T=6, eta=0.1, mechanism=mech, r=4, **extra)
    steps = list(train(task, cfg, Seed(MASTER, 463)))
    assert len(steps) == 6
    assert all(W.shape == (1, 8) for W, _ in steps)
    assert all((g is None) == (mech is Mechanism.NOISY_PROJ) for _, g in steps)
    assert np.array_equal(steps[-1][0], fit(task, cfg, Seed(MASTER, 463)))


def test_noisy_proj_budget_rejects_underflowing_sigma():
    # sigma^2 underflows to 0 here; mu_step overflows to inf instead
    cfg = DpTrainConfig(T=1, eta=0.1, mechanism=Mechanism.NOISY_PROJ, sigma=1e-170, clip=1.0, r=4)
    with pytest.raises(DomainError):
        budget_spent(cfg, _shape(100))


def test_config_validation():
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, sigma=1.0, eps_target=1.0, delta_target=1e-5,
                      clip=1.0, mechanism=Mechanism.DP_LORA_FA)
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, eps_target=1.0)
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, batch=0)
    # bool is an int subclass, so batch=True would pass for a batch of 1
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, batch=True)
    for field, value in (("T", 2.5), ("T", 2.0), ("T", True), ("r", 2.5)):
        with pytest.raises(ConfigError, match=field):
            DpTrainConfig(**{"T": 5, "eta": 0.1, field: value})
    with pytest.raises(DomainError):
        DpTrainConfig(T=5, eta=0.1, r=0)
    # the noisy-projection step legitimately takes sigma plus a reporting eps
    DpTrainConfig(T=5, eta=0.1, sigma=0.5, eps_target=1.0, delta_target=1e-5,
                  clip=1.0, mechanism=Mechanism.NOISY_PROJ)


@pytest.mark.parametrize("eta", [0.0, -0.1, -math.inf])
def test_config_rejects_non_positive_eta(tmp_path, eta):
    # a step of eta <= 0 climbs the loss under every mechanism
    with pytest.raises(ConfigError, match="eta"):
        DpTrainConfig(T=3, eta=eta, mechanism=Mechanism.RP_GD)
    path = tmp_path / "train.cfg"
    path.write_text(f"T = 3\neta = {eta}\nmechanism = rp_gd\n")
    with pytest.raises(ConfigError, match="eta"):
        load_config(path)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# sample config\n"
        "T = 12\n"
        "eta = 0.25\n"
        "batch = full\n"
        "clip = 1.5\n"
        "sigma = 0.3\n"
        "mechanism = noisy_proj\n"
        "r = 6\n"
    )
    cfg = load_config(path)
    assert cfg.T == 12 and cfg.eta == 0.25 and cfg.batch == FULL_BATCH
    assert cfg.mechanism is Mechanism.NOISY_PROJ and cfg.r == 6


@pytest.mark.parametrize("line", ["alpha = 0.2\n", "redraw_each_step = true\n"], ids=["alpha", "redraw_each_step"])
def test_load_config_rejects_removed_knobs(tmp_path, line):
    # budget_spent derives the captured share, and rp_gd redraws M every step
    path = tmp_path / "train.cfg"
    path.write_text("T = 5\neta = 0.1\n" + line)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("T = 5\neta = 0.1\nbogus = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_task_kinds_and_example_loss():
    t = make_logistic_task(30, 6, 4, Seed(MASTER, 470))
    assert t.kind is TaskKind.LOGISTIC
    W = Seed(MASTER, 471).generator().standard_normal((4, 6))
    x = Seed(MASTER, 472).generator().standard_normal(6)
    losses = [t.example_loss(W, x, y) for y in range(4)]
    # cross-entropy of the argmax class is the smallest
    assert int(np.argmin(losses)) == int(np.argmax(W @ x))
    # a NaN probe feature or ridge target is rejected rather than scored NaN
    with pytest.raises(DomainError):
        t.example_loss(W, np.r_[math.nan, x[1:]], 0)
    with pytest.raises(DomainError):
        TrainTask(TaskKind.RIDGE, 2, 1, X=np.ones((3, 2)), y=[math.nan, 1.0, 1.0])
    # so is a non-finite reg, which would make loss and grad_W NaN for any weights
    for reg in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="reg"):
            TrainTask(TaskKind.RIDGE, 2, 1, X=np.ones((3, 2)), y=[1.0, 1.0, 1.0], reg=reg)


_X3 = np.ones((3, 2))


@pytest.mark.parametrize(
    "kind, X, y",
    [
        (TaskKind.LOGISTIC, _X3, [0, math.nan, 1]),  # a NaN label
        (TaskKind.LOGISTIC, _X3, [0, 1.5, 1]),  # a label between two classes
        (TaskKind.LOGISTIC, np.ones((0, 2)), []),  # no examples
        (TaskKind.RIDGE, np.ones((0, 2)), []),
        (TaskKind.RIDGE, np.ones((3, 4)), [1.0, 1.0, 1.0]),  # width is not n_features
        (TaskKind.RIDGE, _X3, [1.0, 1.0]),  # fewer targets than rows
        (TaskKind.RIDGE, _X3, [[1.0], [1.0], [1.0]]),  # a column of targets
        (TaskKind.RIDGE, np.ones(2), [1.0]),  # a 1-D X
    ],
    ids=["nan-label", "fractional-label", "logistic-empty", "ridge-empty", "wrong-width",
         "short-y", "column-y", "1d-X"],
)
def test_task_rejects_malformed_data(kind, X, y):
    with pytest.raises(DomainError):
        TrainTask(kind, 2, 3, X=X, y=y)


def test_logistic_task_needs_a_class():
    # labels are the argmax over n_classes scores, which has no value at 0 classes
    with pytest.raises(DomainError):
        make_logistic_task(10, 4, 0, Seed(MASTER, 473))


@pytest.mark.parametrize(
    "x, y",
    [(np.ones(6), -1), (np.ones(6), 4), (np.ones(6), 1.5), (np.ones(5), 0)],
    ids=["negative-label", "label-past-last-class", "fractional-label", "wrong-width"],
)
def test_example_loss_rejects_malformed_probe(x, y):
    t = make_logistic_task(30, 6, 4, Seed(MASTER, 470))
    with pytest.raises(DomainError):
        t.example_loss(np.zeros((4, 6)), x, y)


def test_fit_rejects_a_divergent_run():
    # noise-free LoRA at eta = 50 overflows; fit raises instead of returning NaN weights
    task = make_ridge_task(50, 8, Seed(MASTER, 480))
    cfg = DpTrainConfig(T=200, eta=50.0, mechanism=Mechanism.NOISE_FREE_LORA, r=4)
    with np.errstate(over="ignore", invalid="ignore"):
        W = [w for w, _ in train(task, cfg, Seed(MASTER, 481))][-1]
        assert not np.isfinite(W).all()
        with pytest.raises(DomainError, match="diverged"):
            fit(task, cfg, Seed(MASTER, 481))


def test_config_rejects_budget_with_unbounded_clip():
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, eps_target=1.0, delta_target=1e-5,
                      mechanism=Mechanism.DP_LORA_FA)
    # noise without a clip bounds nothing; sigma = 0 without one is noise-free LoRA
    with pytest.raises(ConfigError, match="clip"):
        DpTrainConfig(T=5, eta=0.1, sigma=0.1, mechanism=Mechanism.DP_LORA_FA)
    DpTrainConfig(T=5, eta=0.1, sigma=0.0, mechanism=Mechanism.DP_LORA_FA)


def test_config_rejects_rp_gd_minibatch():
    # rp_gd steps on the full-batch gradient: a batch setting would be ignored
    with pytest.raises(ConfigError, match="batch"):
        DpTrainConfig(T=5, eta=0.1, batch=3, mechanism=Mechanism.RP_GD)
    DpTrainConfig(T=5, eta=0.1, batch=FULL_BATCH, mechanism=Mechanism.RP_GD)


def test_config_rejects_out_of_range_budget_inputs():
    # the noisy-projection budget is priced at eps_target > 0
    with pytest.raises(DomainError):
        DpTrainConfig(T=5, eta=0.1, sigma=0.5, clip=1.0, eps_target=0.0, delta_target=1e-5,
                      mechanism=Mechanism.NOISY_PROJ)


# ---------------------------------------------------------------------------
# Ghost-norm clipping against the materialized per-example oracle
# ---------------------------------------------------------------------------


@hst.composite
def _ghost_cases(draw):
    """(task, W, A, idx, clip): a small task, weights, factor and batch."""
    kind = draw(hst.sampled_from([TaskKind.RIDGE, TaskKind.LOGISTIC]))
    n = draw(hst.integers(1, 30))
    d = draw(hst.integers(1, 12))
    r = draw(hst.integers(1, 8))
    seed = Seed(MASTER, draw(hst.integers(0, 2**32 - 1)))
    if kind is TaskKind.RIDGE:
        task = make_ridge_task(n, d, seed.child(0))
    else:
        task = make_logistic_task(n, d, draw(hst.integers(2, 5)), seed.child(0))
    rng = seed.child(1).generator()
    W = rng.standard_normal((task.n_out, d)) * draw(hst.sampled_from([0.0, 0.1, 1.0, 10.0]))
    A = rng.standard_normal((r, d)) / math.sqrt(r)
    # None is the full batch; a Poisson batch may be empty (rate 0) or hold everyone
    rate = draw(hst.one_of(hst.none(), hst.sampled_from([0.0, 0.3, 1.0])))
    idx = None if rate is None else np.flatnonzero(rng.random(n) < rate)
    clip = draw(hst.one_of(hst.just(math.inf), hst.floats(1e-3, 10.0)))
    return task, W, A, idx, clip


def _materialized_clipped_mean(task, W, A, idx, clip, divisor):
    """Oracle clipped mean, and the sum of its terms' norms (the scale of rounding error)."""
    gB = np.einsum("bnd,rd->bnr", task.per_example_grad_W(W, idx), A)
    if math.isfinite(clip):
        norms = np.sqrt(np.einsum("bnr,bnr->b", gB, gB))
        gB = gB * np.minimum(1.0, clip / np.maximum(norms, 1e-300))[:, None, None]
    return gB.sum(axis=0) / divisor, np.sqrt(np.einsum("bnr,bnr->b", gB, gB)).sum() / divisor


@settings(max_examples=150, deadline=None)
@given(_ghost_cases())
def test_ghost_clipped_mean_matches_materialized_oracle(case):
    task, W, A, idx, clip = case
    divisor = 7
    got = _clipped_mean_grad_B(task, W, A, idx, clip, divisor)
    want, scale = _materialized_clipped_mean(task, W, A, idx, clip, divisor)
    assert got.shape == (task.n_out, A.shape[0])
    if idx is not None and idx.size == 0:
        assert np.array_equal(got, np.zeros_like(got))
    else:
        # relative to the summed term norms: clipped terms may cancel to ~0 in the sum
        assert np.linalg.norm(got - want) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(_ghost_cases())
def test_ghost_clipped_per_example_norms_within_clip(case):
    task, W, A, idx, clip = case
    rows = range(task.n_examples) if idx is None else idx
    for b in rows:
        one = _clipped_mean_grad_B(task, W, A, np.array([b]), clip, 1)
        assert np.linalg.norm(one) <= clip * (1.0 + 1e-12)
