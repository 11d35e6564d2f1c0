"""The four benchmark workloads: inputs built from the seed, the operation
cycle, and the output check of every operation.

A workload is run by a single closed-loop caller: the runner issues one
operation, waits for it, then issues the next. Operations come in cycles of a
fixed mix, and the runner only stops at the end of a cycle, so every run
measures the same proportions. Each operation looks its library function up
at call time, so the traced run sees the patched attribute.

Checks use yardsticks that do not depend on the random stream (closed forms
evaluated with scipy.special, monotonicity, exit codes, repeatability), never
digests of seeded outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy import special

from wishart_dp import accountants, attacks, cli, profiler, trainer
from wishart_dp.randmat import Seed

RTOL = 1e-9  # agreement with scipy.special for closed forms and quantiles


def exact_support(rho: float, r: int) -> float:
    """E[Phi(-rho sqrt(X) / sqrt(1 - rho^2))] for X ~ chi2_r, as a Student-t CDF."""
    return float(special.stdtr(r, -rho * math.sqrt(r) / math.sqrt(1.0 - rho * rho)))


def _close(got: float, want: float, rtol: float = RTOL, atol: float = 1e-15) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


class Workload:
    """Base class; a subclass builds its inputs in __init__ (part of set-up)."""

    name = ""
    min_cycles = 2  # a run is at least this many whole cycles

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def begin(self) -> None:
        """Work inside the timed window before the first cycle."""

    def cycle(self, c: int) -> list:
        """The operations of cycle c as (kind, callable) pairs."""
        raise NotImplementedError

    def observe(self, kind: str, out):
        """Untimed step right after an operation; returns what the check needs."""
        return out

    def end(self, records) -> None:
        """Work inside the timed window after the last cycle."""

    def check(self, records) -> list[str | None]:
        """Failure reason per completed operation (None when it passed)."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# mia: criterion 10's shadow-model membership inference, one model per op
# ---------------------------------------------------------------------------


class Mia(Workload):
    """Shadow models of criterion 10's five configurations in equal proportion.

    Each cycle trains one shadow model per configuration; even cycles train on
    D plus the canary (members), odd cycles on D alone. The per-model body is
    that of attacks.run_mia (fit, then the canary loss), unrolled so that one
    operation is one shadow model.
    """

    name = "mia"
    min_cycles = 14  # so that the noise-free group holds the 11th slowest op
    NOISY = ((0.1, 64), (0.5, 64), (0.5, 16), (0.5, 4))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        root = Seed(seed, 10)
        small = trainer.make_logistic_task(200, 20, 10, root.child(12), reg=1e-4)
        big = trainer.make_logistic_task(100, 128, 10, root.child(15), reg=1e-4)
        free = trainer.DpTrainConfig(
            T=200, eta=4.0, mechanism=trainer.Mechanism.NOISE_FREE_LORA, r=64
        )
        # (kind, task, config, canary seed, shadow-model seed)
        self.configs = [("noise_free_r64", small, free, root.child(13), root.child(14))]
        for j, (sigma, r) in enumerate(self.NOISY):
            cfg = trainer.DpTrainConfig(
                T=200, eta=0.3, mechanism=trainer.Mechanism.NOISY_PROJ,
                sigma=sigma, clip=1.0, r=r,
            )
            self.configs.append((f"noisy_s{sigma}_r{r}", big, cfg, root.child(16), root.child(17 + j)))
        self.canary = {}
        self.task_in = {}
        self.auc = {}

    def begin(self) -> None:
        for kind, task, cfg, canary_seed, _ in self.configs:
            canary = attacks.craft_canary(task, cfg, canary_seed)
            self.canary[kind] = canary
            self.task_in[kind] = task.add_example(canary.x_q, canary.y_q)

    def cycle(self, c: int) -> list:
        member = c % 2 == 0
        ops = []
        for kind, task, cfg, _, shadow_seed in self.configs:
            shadow_task = self.task_in[kind] if member else task
            canary = self.canary[kind]

            def op(shadow_task=shadow_task, cfg=cfg, seed=shadow_seed.child(c), canary=canary):
                W = trainer.fit(shadow_task, cfg, seed)
                return W, shadow_task.example_loss(W, canary.x_q, canary.y_q)

            ops.append((kind, op))
        return ops

    def end(self, records) -> None:
        for kind, *_ in self.configs:
            scores_in = [r.out[1] for r in records if r.kind == kind and r.ok and r.cycle % 2 == 0]
            scores_out = [r.out[1] for r in records if r.kind == kind and r.ok and r.cycle % 2 == 1]
            if scores_in and scores_out:
                self.auc[kind] = attacks.roc_auc(scores_in, scores_out)[0]

    def check(self, records) -> list[str | None]:
        free_auc = self.auc.get("noise_free_r64", math.nan)
        reasons = []
        for r in records:
            W, score = r.out
            if not (np.all(np.isfinite(W)) and math.isfinite(score)):
                reasons.append("non-finite weights or canary score")
            elif r.kind == "noise_free_r64" and not free_auc >= 0.99:
                reasons.append(f"noise-free AUC {free_auc:.4f} < 0.99")
            else:
                reasons.append(None)
        return reasons


# ---------------------------------------------------------------------------
# profile: Monte Carlo privacy profiles across the chi-square sampler switch
# ---------------------------------------------------------------------------

PROFILE_RHO = 0.999
PROFILE_D = 400
PROFILE_N = 10**6
# Per cycle: one r=64, three r=16 and three of each gamma-path rank. The nine
# gamma-path operations are 9 of 13, so the median sits inside the gamma-path
# group. A run holds at least three cycles and, at the run length used, at
# most about five, so the 11th slowest operation (op_tail_ms) lies inside the
# r=16 group, below the few r=64 calls and above the gamma-path ones.
PROFILE_CYCLE = (16, 65, 128, 512, 64, 65, 128, 512, 16, 65, 128, 512, 16)
PROFILE_GRID = np.round(np.arange(0.0, 8.0 + 1e-9, 0.02), 10)
PROFILE_DELTA = 0.01


class Profile(Workload):
    """One mc_privacy_profile call per op over PROFILE_CYCLE; a fresh seed per op."""

    name = "profile"
    min_cycles = 3  # so that r=64 and r=16 together hold at least 12 operations

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.root = Seed(seed, 20)

    def cycle(self, c: int) -> list:
        ops = []
        for j, r in enumerate(PROFILE_CYCLE):
            seed = self.root.child(c * len(PROFILE_CYCLE) + j)

            def op(r=r, seed=seed):
                return profiler.mc_privacy_profile(
                    rho=PROFILE_RHO, d=PROFILE_D, r=r, eps_grid=PROFILE_GRID,
                    n=PROFILE_N, seed=seed, threads=1,
                )

            ops.append((f"r{r}", op))
        return ops

    def observe(self, kind: str, prof):
        return int(kind[1:]), np.asarray(prof.eps_grid), np.asarray(prof.delta_hat), np.asarray(prof.stderr)

    @staticmethod
    def _eps_hat(grid, delta_hat, stderr) -> tuple[float, float]:
        """eps at delta = 0.01 and its stderr in eps units, as in criterion 2."""
        idx = int(np.argmax(delta_hat <= PROFILE_DELTA))
        if not delta_hat[idx] <= PROFILE_DELTA:
            return math.nan, math.nan
        lo, hi = max(idx - 5, 0), min(idx + 5, len(grid) - 1)
        slope = (delta_hat[lo] - delta_hat[hi]) / (grid[hi] - grid[lo])
        return float(grid[idx]), float(stderr[idx] / max(slope, 1e-12))

    def check(self, records) -> list[str | None]:
        bound = {}
        for r in sorted({rec.out[0] for rec in records}):
            # delta' chosen so that the bound's delta (support + 3 delta') is 0.01;
            # eps does not depend on the support estimate, so it gets few samples
            delta_prime = (PROFILE_DELTA - exact_support(PROFILE_RHO, r)) / 3.0
            spec = accountants.AlignmentSpec(rho=PROFILE_RHO, d=PROFILE_D, r=r)
            bound[r] = accountants.account_vec(spec, delta_prime, support_samples=1000).eps_rho
        reasons = []
        for rec in records:
            r, grid, delta_hat, stderr = rec.out
            eps_hat, eps_se = self._eps_hat(grid, delta_hat, stderr)
            if not (np.all(np.diff(delta_hat) <= 0.0) and delta_hat[0] <= 1.0 and delta_hat[-1] >= 0.0):
                reasons.append("delta_hat is not nonincreasing in [0, 1]")
            elif not eps_hat <= bound[r] + 3.0 * eps_se:
                reasons.append(f"eps_hat({PROFILE_DELTA}) = {eps_hat} exceeds the bound {bound[r]} + 3 se")
            else:
                reasons.append(None)
        return reasons


# ---------------------------------------------------------------------------
# account: closed-form accountant calls and support Monte Carlo calls
# ---------------------------------------------------------------------------

VEC_RHO = 0.999
VEC_D = 400
VEC_DELTA_PRIME = 1e-3
# account_vec ranks per cycle; r=16 three times so that, over three to about
# nine cycles, the 11th slowest operation of a run (op_tail_ms) falls inside
# the r=16 group, clear of the single slowest (r=64) call per cycle.
VEC_RANKS = (16, 64, 16, 128, 16)
# README account-large-r parameters
LARGE_R = dict(
    d=200, r=150, s=20, p=20, delta_v=0.1, sigma_G=1.0, sigma_M=0.0816, beta=0.01,
    delta_par=1e-5, rho_perp=0.999, delta_prime_perp=1e-3,
)
# Closed-form calls per cycle. They are spread in equal groups in front of
# the six Monte Carlo calls, so that their latencies are sampled across the
# whole window rather than at one instant per cycle.
SMALL_R_PER_CYCLE = 60
ALPHA_PER_CYCLE = 12


def _tradeoff(eps: float, mu: float) -> float:
    root = math.sqrt(mu)
    return float(special.ndtr((-eps - mu / 2.0) / root) + special.ndtr(-(eps - mu / 2.0) / root))


def _vec_expected(rho: float, d: int, r: int, delta_prime: float) -> tuple[float, float, float, float]:
    """(K, b, eps, delta) of the vector bound from scipy quantiles and the exact support term."""
    t = float(special.stdtrit(r, 1.0 - delta_prime))
    K = math.sqrt(1.0 - rho * rho) / math.sqrt(r) * t
    b = float(special.chdtri(d + r - 1, delta_prime))
    eps = 0.5 * (d - r + 1) * math.log(rho + K) + (1.0 - rho + K) * b / (2.0 * (rho - K))
    return K, b, eps, exact_support(rho, r) + 3.0 * delta_prime


class Account(Workload):
    """A fixed cycle: 60 account_small_r and 12 choose_alpha calls at the README
    parameters and seeded nearby points, and account_vec over VEC_RANKS and
    the README account_large_r, both at the default support sample count."""

    name = "account"
    min_cycles = 3  # so that the r=64 and r=16 account_vec calls number at least 12

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        # Nearby points move only the arguments that do not change the amount
        # of work (eps, sigma, mu); rank and capture level stay at the README
        # values, so the cost of a run does not depend on the seed.
        rng = np.random.default_rng([seed, 30])
        self.small_r = [dict(eps=1.0, sens_frob=1.0, s=1, d=2048, r=32, sigma=0.5, alpha=0.0235)]
        while len(self.small_r) < SMALL_R_PER_CYCLE:
            self.small_r.append(dict(
                eps=float(np.exp(rng.uniform(-0.3, 0.3))), sens_frob=1.0, s=1, d=2048, r=32,
                sigma=float(0.5 * np.exp(rng.uniform(-0.2, 0.2))), alpha=0.0235,
            ))
        self.alpha = [dict(eps=1.0, mu=4.0, s=1, d=2048, r=64, eta=0.5)]
        while len(self.alpha) < ALPHA_PER_CYCLE:
            self.alpha.append(dict(
                eps=float(np.exp(rng.uniform(-0.2, 0.2))), mu=float(4.0 * np.exp(rng.uniform(-0.25, 0.25))),
                s=1, d=2048, r=64, eta=0.5,
            ))

    def cycle(self, c: int) -> list:
        closed_form = [
            ("account_small_r", lambda kw=kw: ("small_r", kw, accountants.account_small_r(**kw)))
            for kw in self.small_r
        ] + [
            ("choose_alpha", lambda kw=kw: ("alpha", kw, accountants.choose_alpha(**kw)))
            for kw in self.alpha
        ]
        monte_carlo = [
            (f"account_vec_r{spec.r}", lambda spec=spec: ("vec", spec, accountants.account_vec(spec, VEC_DELTA_PRIME)))
            for spec in (accountants.AlignmentSpec(rho=VEC_RHO, d=VEC_D, r=r) for r in VEC_RANKS)
        ] + [("account_large_r", lambda: ("large", LARGE_R, accountants.account_large_r(**LARGE_R)))]
        group = len(closed_form) // len(monte_carlo)
        ops = []
        for i, mc in enumerate(monte_carlo):
            ops += closed_form[i::len(monte_carlo)][:group] + [mc]
        return ops

    @staticmethod
    def _reason(what: str, inputs, rep) -> str | None:
        if what == "small_r":
            mu = inputs["alpha"] * inputs["sens_frob"] ** 2 / inputs["sigma"] ** 2
            dE = _tradeoff(inputs["eps"], mu)
            dM = inputs["s"] * float(special.betaincc(inputs["r"] / 2.0, (inputs["d"] - inputs["r"]) / 2.0, inputs["alpha"]))
            if not (_close(rep.delta_E, dE) and _close(rep.delta_M, dM, atol=1e-13)):
                return f"small-r delta_E/delta_M {rep.delta_E}/{rep.delta_M} != scipy {dE}/{dM}"
            return None
        if what == "alpha":
            alpha, rep = rep
            want = (1.0 + inputs["eta"]) * inputs["r"] / inputs["d"]
            dE = _tradeoff(inputs["eps"], want * inputs["mu"])
            dM = inputs["s"] * float(special.betaincc(inputs["r"] / 2.0, (inputs["d"] - inputs["r"]) / 2.0, want))
            if not (_close(alpha, want) and _close(rep.delta_E, dE) and _close(rep.delta_M, dM, atol=1e-13)):
                return f"choose_alpha ({alpha}, {rep.delta_E}, {rep.delta_M}) != scipy ({want}, {dE}, {dM})"
            return None
        if what == "vec":
            K, b, eps, delta = _vec_expected(inputs.rho, inputs.d, inputs.r, VEC_DELTA_PRIME)
            if not (_close(rep.K, K) and _close(rep.b, b) and _close(rep.eps_rho, eps)):
                return f"account_vec (K, b, eps) = ({rep.K}, {rep.b}, {rep.eps_rho}) != scipy ({K}, {b}, {eps})"
            if not _close(rep.delta_rho, delta):
                return f"account_vec delta {rep.delta_rho} != exact-support delta {delta}"
            return None
        p = inputs
        _, _, eps_perp, delta_perp = _vec_expected(p["rho_perp"], p["d"] - p["s"], p["r"] - p["p"], p["delta_prime_perp"])
        delta = p["delta_par"] + delta_perp + p["beta"]
        if not _close(rep.eps_perp, eps_perp):
            return f"account_large_r residual eps {rep.eps_perp} != scipy {eps_perp}"
        if not _close(rep.delta_total, delta):
            return f"account_large_r delta {rep.delta_total} != exact-support delta {delta}"
        return None

    def check(self, records) -> list[str | None]:
        return [self._reason(*r.out) for r in records]


# ---------------------------------------------------------------------------
# train: in-process CLI training runs, one invocation per op
# ---------------------------------------------------------------------------

# README training config; the ridge ops change only its mechanism line.
README_TRAIN_CFG = """T = 50
eta = 0.1
mechanism = {mechanism}
eps_target = 8.0
delta_target = 1e-5
clip = 2.0
r = 8
"""
NOISY_TRAIN_CFG = """T = 200
eta = 0.3
mechanism = noisy_proj
sigma = 0.5
clip = 1.0
r = {r}
"""


class Train(Workload):
    """One `wishart-dp train` invocation per op through cli.main, stdout captured.

    The cycle runs the README ridge config under dp_lora_fa, noise_free_lora
    and rp_gd, and a logistic d=128 noisy_proj config at r=64 and r=16. Every
    cycle repeats the same invocations, so each op's stdout must equal the
    first stdout of its kind byte for byte.
    """

    name = "train"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        ridge = ["--task", "ridge", "--n", "200", "--d", "32"]
        logistic = ["--task", "logistic", "--n", "100", "--d", "128", "--classes", "10"]
        jobs = [
            ("dp_lora_fa", README_TRAIN_CFG.format(mechanism="dp_lora_fa"), ridge, 50),
            ("noise_free_lora", README_TRAIN_CFG.format(mechanism="noise_free_lora"), ridge, 50),
            ("rp_gd", README_TRAIN_CFG.format(mechanism="rp_gd"), ridge, 50),
            ("noisy_proj_r64", NOISY_TRAIN_CFG.format(r=64), logistic, 200),
            ("noisy_proj_r16", NOISY_TRAIN_CFG.format(r=16), logistic, 200),
        ]
        self.jobs = []
        for kind, text, task_args, steps in jobs:
            cfg_path = workdir / f"{kind}.cfg"
            cfg_path.write_text(text)
            csv_path = workdir / f"{kind}.csv"
            argv = ["train", *task_args, "--config", str(cfg_path), "--seed", str(seed), "--out", str(csv_path)]
            self.jobs.append((kind, argv, csv_path, steps))
        self.steps = {kind: steps for kind, _, _, steps in self.jobs}
        self.csv = {kind: csv_path for kind, _, csv_path, _ in self.jobs}

    def cycle(self, c: int) -> list:
        ops = []
        for kind, argv, _, _ in self.jobs:

            def op(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                return code, out.getvalue()

            ops.append((kind, op))
        return ops

    def observe(self, kind: str, out):
        code, stdout = out
        with open(self.csv[kind]) as fh:
            rows = sum(1 for _ in fh) - 1
        return code, stdout, rows

    def check(self, records) -> list[str | None]:
        first = {}
        for r in records:
            first.setdefault(r.kind, r.out[1])
        reasons = []
        for r in records:
            code, stdout, rows = r.out
            if code != 0:
                reasons.append(f"exit code {code}")
                continue
            final_loss = json.loads(stdout)["final_loss"]
            if not math.isfinite(final_loss):
                reasons.append(f"final_loss {final_loss}")
            elif rows != self.steps[r.kind]:
                reasons.append(f"{rows} CSV rows, expected {self.steps[r.kind]}")
            elif stdout != first[r.kind]:
                reasons.append("stdout differs from an identical earlier invocation")
            else:
                reasons.append(None)
        return reasons


WORKLOADS = {w.name: w for w in (Mia, Profile, Account, Train)}
