"""Training-loop tests: frozen-factor algebra, chain rule, DP reductions, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wishart_dp import mechanisms
from wishart_dp.accountants import compose_gaussian_steps, delta_M_bound
from wishart_dp.errors import ConfigError, DomainError
from wishart_dp.randmat import Seed, wishart_draw
from wishart_dp.trainer import (
    FULL_BATCH,
    DpTrainConfig,
    Mechanism,
    TaskKind,
    TrainTask,
    _clipped_mean_grad_B,
    budget_spent,
    clip_compare,
    dp_lora_fa,
    fit,
    load_config,
    make_logistic_task,
    make_ridge_task,
    noisy_proj_budget,
    noisy_proj_step,
    rp_gd,
    train,
)

from conftest import MASTER


@pytest.fixture()
def ridge_task():
    return make_ridge_task(100, 16, Seed(MASTER, 400), reg=1e-3)


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
    assert budget_spent(dp_cfg, 20, 16) == budget_spent(free_cfg, 20, 16) == (math.inf, 0.0)
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
    assert budget_spent(cfg, cfg.T, 16)[0] < 1e-3  # enormous noise buys a tiny eps


def test_dp_lora_fa_budget_composition(ridge_task):
    cfg = DpTrainConfig(
        T=7, eta=0.05, mechanism=Mechanism.DP_LORA_FA, eps_target=0.5, delta_target=1e-6,
        clip=1.0, r=4,
    )
    assert budget_spent(cfg, 1, 16) == (pytest.approx(0.5), pytest.approx(1e-6))
    assert budget_spent(cfg, cfg.T, 16) == (pytest.approx(3.5), pytest.approx(7e-6))
    # sigma follows the training algorithm's constant
    sigma = mechanisms.gaussian_sigma(
        1.0, 0.5, 1e-6, mechanisms.SigmaConvention.ALGORITHM
    )
    assert sigma == pytest.approx(2 * 1.0 * math.sqrt(2 * math.log(1.25e6)) / 0.5, rel=1e-12)


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


@pytest.mark.filterwarnings("ignore::wishart_dp.errors.OutOfStatedRangeWarning")
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


def test_noisy_proj_step_zero_clip_limit():
    # A tiny clipping threshold leaves an essentially pure projected-noise update.
    task = make_ridge_task(30, 8, Seed(MASTER, 433))
    W = Seed(MASTER, 434).generator().standard_normal((1, 8))
    cfg = DpTrainConfig(T=1, eta=1.0, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1e-12, r=4)
    W2 = noisy_proj_step(task, W, cfg, Seed(MASTER, 435))
    seed = Seed(MASTER, 435).child(0)
    gen = seed.generator()
    Z = gen.standard_normal((8, 4)) * math.sqrt(0.25)
    xi = gen.standard_normal((8, 1)) * 0.5
    pure_noise_update = (xi.T @ (Z @ Z.T)).reshape(1, 8)
    assert np.abs((W - W2) - pure_noise_update).max() < 1e-9


def test_noisy_proj_step_equals_m2_mechanism_bitwise():
    task = make_ridge_task(40, 12, Seed(MASTER, 436))
    W = Seed(MASTER, 437).generator().standard_normal((1, 12))
    cfg = DpTrainConfig(
        T=1, eta=0.3, mechanism=Mechanism.NOISY_PROJ, sigma=0.4, clip=0.7, r=6,
        eps_target=None, delta_target=None,
    )
    step_seed = Seed(MASTER, 438)
    W2 = noisy_proj_step(task, W, cfg, step_seed)
    G = task.grad_W(W)
    params = mechanisms.NoisyMechParams(
        variant=mechanisms.Variant.M2, r=6, sigma_G=0.4, clip_beta=0.7
    )
    out = mechanisms.noisy_mech(G.T, params, step_seed.child(0))
    assert np.array_equal(W2, W - 0.3 * out.T)
    # the step is priced at sensitivity 2 * clip: mu_step = alpha (2 clip)^2 / sigma^2
    alpha = 1.5 * 6 / 12
    expected = compose_gaussian_steps([alpha * (2 * 0.7) ** 2 / 0.4**2], 1.0, delta_M_bound(2, alpha, 6, 12))
    assert noisy_proj_budget(cfg, 1, 1.0, 12) == pytest.approx(expected, rel=1e-12)


def test_noisy_proj_multi_step_budget():
    cfg = DpTrainConfig(
        T=5, eta=0.1, mechanism=Mechanism.NOISY_PROJ, sigma=0.5, clip=1.0, r=8,
        alpha=0.1, sens_rank=2,
    )
    d = 100
    mu_step = 0.1 * (2.0) ** 2 / 0.25
    delta_p = delta_M_bound(2, 0.1, 8, d)
    expected = compose_gaussian_steps([mu_step] * 5, 1.0, delta_p)
    assert noisy_proj_budget(cfg, 5, 1.0, d) == pytest.approx(expected, rel=1e-12)


def _rp_cfg(eta, T, r, redraw):
    return DpTrainConfig(T=T, eta=eta, mechanism=Mechanism.RP_GD, r=r, redraw_each_step=redraw)


def test_rp_gd_stationary_point():
    task = make_ridge_task(50, 8, Seed(MASTER, 440), noise=0.0, reg=0.0)
    w_star = task.ridge_optimum()
    steps = rp_gd(task, w_star, _rp_cfg(0.05, 10, 8, False), Seed(MASTER, 441))
    losses = [task.loss(w[None, :]) for w, _ in steps]
    assert max(losses) - min(losses) < 1e-20


def test_rp_gd_tracks_plain_gd(ridge_task):
    # Per-step redraws make the projected update unbiased (E[M] = I), so the
    # averaged trajectory tracks plain GD. A single fixed square-case M does
    # not enjoy this: its smallest nonzero eigenvalue sits near 0, stalling
    # the matching directions, so the sample-once variant is not compared.
    d, T, eta = 16, 500, 1e-2
    w = np.zeros(d)
    for _ in range(T):
        w = w - eta * ridge_task.grad_W(w[None, :])[0]
    final_plain = ridge_task.loss(w[None, :])
    ratios = []
    for s in range(20):
        *_, (w, _) = rp_gd(ridge_task, np.zeros(d), _rp_cfg(eta, T, d, True), Seed(MASTER, 442).child(s))
        ratios.append(ridge_task.loss(w[None, :]) / final_plain)
    assert float(np.mean(ratios)) <= 1.1


def test_rp_gd_rank_one_confinement():
    from wishart_dp.randmat import wishart_draw

    task = make_ridge_task(40, 10, Seed(MASTER, 443))
    # with a fixed rank-1 M every update stays along the single factor column
    *_, (w, _) = rp_gd(task, np.zeros(10), _rp_cfg(0.05, 5, 1, False), Seed(MASTER, 444))
    Z = wishart_draw(10, 1, Seed(MASTER, 444).child(0)).Z
    direction = Z[:, 0] / np.linalg.norm(Z)
    resid = w - direction * float(w @ direction)
    assert np.linalg.norm(resid) < 1e-10


def test_rp_gd_fixed_and_redrawn_share_first_step(ridge_task):
    # both modes draw step 0's M from seed.child(0); they part only from step 1 on
    w0 = Seed(MASTER, 445).generator().standard_normal(16)
    fixed = list(rp_gd(ridge_task, w0, _rp_cfg(0.05, 3, 4, False), Seed(MASTER, 446)))
    redrawn = list(rp_gd(ridge_task, w0, _rp_cfg(0.05, 3, 4, True), Seed(MASTER, 446)))
    assert np.array_equal(fixed[0][0], redrawn[0][0])
    assert not np.array_equal(fixed[-1][0], redrawn[-1][0])


def test_clip_compare_collapses_at_large_rank():
    res = clip_compare(10, 10**9, 0.01, 2.0)
    assert res.interval_low == pytest.approx(2.0, rel=1e-3)
    assert res.interval_high == pytest.approx(2.0, rel=1e-3)


def test_clip_compare_worked_example():
    res = clip_compare(10, 1200, 0.01, 1.0)
    assert res.zeta == pytest.approx(math.sqrt(12 * math.log(2000) / 1200), rel=1e-12)
    assert res.zeta == pytest.approx(0.2757, abs=2e-4)
    assert res.interval_low == pytest.approx(1 / math.sqrt(1 + res.zeta), rel=1e-12)
    assert res.interval_high == pytest.approx(1 / math.sqrt(1 - res.zeta), rel=1e-12)


def test_clip_compare_empirical_containment():
    # ||G A^T||_F / ||G||_F falls in [sqrt(1-zeta), sqrt(1+zeta)] w.h.p.
    d, r, n_rows = 64, 256, 3
    zeta = clip_compare(n_rows, r, 0.01, 1.0).zeta
    rng = Seed(MASTER, 450).generator()
    ok = 0
    trials = 1000
    for _ in range(trials):
        G = rng.standard_normal((n_rows, d))
        A = rng.standard_normal((r, d)) / math.sqrt(r)
        ratio = np.linalg.norm(G @ A.T) / np.linalg.norm(G)
        ok += math.sqrt(1 - zeta) <= ratio <= math.sqrt(1 + zeta)
    assert ok >= 0.99 * trials


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
        noisy_proj_budget(cfg, 1, 1.0, 100)


def test_config_validation():
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, sigma=1.0, eps_target=1.0, delta_target=1e-5,
                      clip=1.0, mechanism=Mechanism.DP_LORA_FA)
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, eps_target=1.0)
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, batch=0)
    # the noisy-projection step legitimately takes sigma plus a reporting eps
    DpTrainConfig(T=5, eta=0.1, sigma=0.5, eps_target=1.0, delta_target=1e-5,
                  clip=1.0, mechanism=Mechanism.NOISY_PROJ)


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
        "alpha = 0.2\n"
        "sens_rank = 1\n"
        "redraw_each_step = true\n"
    )
    cfg = load_config(path)
    assert cfg.T == 12 and cfg.eta == 0.25 and cfg.batch == FULL_BATCH
    assert cfg.mechanism is Mechanism.NOISY_PROJ and cfg.r == 6
    assert cfg.alpha == 0.2 and cfg.sens_rank == 1 and cfg.redraw_each_step


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("True", True), ("YES", True), ("0", False), ("false", False), ("No", False)],
)
def test_load_config_reads_redraw_flag(tmp_path, value, expected):
    path = tmp_path / "train.cfg"
    path.write_text(f"T = 5\neta = 0.1\nredraw_each_step = {value}\n")
    assert load_config(path).redraw_each_step is expected


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


def test_config_rejects_budget_with_unbounded_clip():
    with pytest.raises(ConfigError):
        DpTrainConfig(T=5, eta=0.1, eps_target=1.0, delta_target=1e-5,
                      mechanism=Mechanism.DP_LORA_FA)


def test_config_rejects_out_of_range_budget_inputs():
    # the noisy-projection budget is priced at eps_target > 0 and alpha in (0, 1]
    with pytest.raises(DomainError):
        DpTrainConfig(T=5, eta=0.1, sigma=0.5, clip=1.0, eps_target=0.0, delta_target=1e-5,
                      mechanism=Mechanism.NOISY_PROJ)
    for alpha in (0.0, 1.5):
        with pytest.raises(DomainError):
            DpTrainConfig(T=5, eta=0.1, sigma=0.5, clip=1.0, alpha=alpha,
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
