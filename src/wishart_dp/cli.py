"""Command-line surface: reproducible, file-based access to every subsystem.

Conventions:

* machine-readable JSON on stdout, human summary on stderr, bulk data in the
  CSV named by --out; both formats are built here and nowhere else: library
  calls return what they computed, and this module turns it into JSON keys
  and CSV rows (one writer, _write_csv, serves every subcommand);
* every randomized subcommand requires --seed (no silent entropy); repeated
  invocations with identical flags are byte-identical;
* a run manifest (subcommand, params, seed, tool version, output files) is
  embedded in the stdout JSON and written next to --out when present;
* exit codes: 0 success, 2 usage error, 3 domain/precondition/config error,
  4 self-test failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import os
import sys

import numpy as np

from . import __version__, accountants, attacks, mechanisms, profiler, specialfn, trainer
from .errors import DomainError, WishartDpError
from .randmat import Seed, wishart_draw

_EXIT_USAGE = 2
_EXIT_DOMAIN = 3
_EXIT_SELFTEST = 4


def _thread_count(text: str) -> int:
    """--threads value; argparse also runs it on the WISHART_DP_THREADS default."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"--threads (default from WISHART_DP_THREADS) must be a positive integer, got {text!r}"
        )
    return n


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _manifest(args: argparse.Namespace, outputs: list[str]) -> dict:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and not callable(v)
    }
    seed = params.pop("seed", None)
    # profile-mc draws rank r from stream r of the master seed, every other subcommand from stream 0
    streams = {"streams": args.r} if args.command == "profile-mc" else {"stream": 0}
    manifest = {
        "subcommand": args.command,
        "params": params,
        "seed": None if seed is None else {"master": seed, **streams},
        "tool_version": __version__,
        "outputs": outputs,
    }
    return manifest


def _emit(args: argparse.Namespace, payload: dict, outputs: list[str], summary: str) -> None:
    manifest = _manifest(args, outputs)
    payload = dict(payload)
    payload["manifest"] = manifest
    for out in outputs:
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _write_csv(path: str, header: str, rows) -> None:
    """Write a header line, then each row's values joined by commas.

    str of a Python float is its shortest round-trip repr, so rows hold Python
    scalars (from .tolist()), never numpy ones.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _account_payload(kind: str, inputs: dict, report, epsilon: str | None, delta: str) -> dict:
    """JSON of an accountant report: {kind, inputs, intermediates, epsilon, delta}.

    epsilon and delta name the report fields holding the pair; epsilon is None
    when the bound is stated at the input eps. Every other field of the report
    is an intermediate, its unclamped delta under the key delta_unclamped.
    """
    intermediates = dataclasses.asdict(report)
    intermediates["delta_unclamped"] = intermediates.pop(delta + "_unclamped")
    return {
        "kind": kind,
        "inputs": inputs,
        "epsilon": inputs["eps"] if epsilon is None else intermediates.pop(epsilon),
        "delta": intermediates.pop(delta),
        "intermediates": intermediates,
    }


def _seed(args: argparse.Namespace) -> Seed:
    return Seed(args.seed)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_account_vec(args) -> int:
    inputs = {"rho": args.rho, "d": args.d, "r": args.r, "delta_prime": args.delta_prime}
    report = accountants.account_vec(
        accountants.AlignmentSpec(rho=args.rho, d=args.d, r=args.r),
        args.delta_prime,
        seed=_seed(args),
        support_samples=args.support_samples,
    )
    _emit(
        args,
        _account_payload("vec_account", inputs, report, "eps_rho", "delta_rho"),
        [],
        f"vector bound: eps = {report.eps_rho:.6g}, delta = {report.delta_rho:.6g}",
    )
    return 0


def _cmd_account_small_r(args) -> int:
    inputs = dict(
        eps=args.eps, sens_frob=args.sens, s=args.s, d=args.d, r=args.r, sigma=args.sigma, alpha=args.alpha
    )
    report = accountants.account_small_r(**inputs)
    _emit(
        args,
        _account_payload("small_r_account", inputs, report, None, "delta_total"),
        [],
        f"small-r bound: delta({args.eps}) = {report.delta_total:.6g} "
        f"(trade-off {report.delta_E:.4g} + capture {report.delta_M:.4g})",
    )
    return 0


def _cmd_account_large_r(args) -> int:
    inputs = dict(
        d=args.d,
        r=args.r,
        s=args.s,
        p=args.p,
        delta_v=args.delta_v,
        sigma_G=args.sigma_g,
        sigma_M=args.sigma_m,
        beta=args.beta,
        delta_par=args.delta_par,
        rho_perp=args.rho_perp,
        delta_prime_perp=args.delta_prime_perp,
    )
    report = accountants.account_large_r(**inputs, seed=_seed(args), support_samples=args.support_samples)
    _emit(
        args,
        _account_payload("large_r_account", inputs, report, "eps_total", "delta_total"),
        [],
        f"large-r bound: eps = {report.eps_total:.6g} "
        f"(parallel {report.eps_par:.4g} + residual {report.eps_perp:.4g}), "
        f"delta = {report.delta_total:.6g}",
    )
    return 0


def _cmd_choose_alpha(args) -> int:
    alpha, report = accountants.choose_alpha(
        eps=args.eps, mu=args.mu, s=args.s, d=args.d, r=args.r, eta=args.eta
    )
    # the small-r account choose_alpha certified: sensitivity sqrt(mu) at sigma = 1
    inputs = dict(
        eps=args.eps, sens_frob=math.sqrt(args.mu), s=args.s, d=args.d, r=args.r, sigma=1.0, alpha=alpha
    )
    payload = _account_payload("small_r_account", inputs, report, None, "delta_total")
    payload["alpha"] = alpha
    payload["delta_gauss"] = accountants.gaussian_tradeoff(args.eps, args.mu)
    _emit(
        args,
        payload,
        [],
        f"alpha = {alpha:.6g}: delta {report.delta_total:.6g} beats "
        f"Gaussian {payload['delta_gauss']:.6g}",
    )
    return 0


def _cmd_profile_mc(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise DomainError(f"--delta must lie in (0, 1), got {args.delta}")
    if args.eps_grid is not None:
        grid = args.eps_grid
    else:
        if not (0.0 < args.eps_step < math.inf and math.isfinite(args.eps_max)):
            raise DomainError(f"the grid needs a finite --eps-max and a finite --eps-step > 0, "
                              f"got {args.eps_max} and {args.eps_step}")
        grid = list(np.round(np.arange(0.0, args.eps_max + 1e-12, args.eps_step), 12))
    profiles = []
    per_rank = []
    for r in args.r:
        prof = profiler.mc_privacy_profile(
            rho=args.rho,
            d=args.d,
            r=r,
            eps_grid=grid,
            n=args.n,
            seed=Seed(args.seed, r),
            threads=args.threads,
        )
        try:
            eps_hat = prof.eps_at_delta(args.delta)
        except WishartDpError:
            eps_hat = None  # no grid eps is shown to reach --delta
        per_rank.append({"r": r, "eps_hat": eps_hat})
        profiles.append(prof)
    outputs = []
    if args.out:
        _write_csv(
            args.out,
            "eps,delta_hat,stderr,n,rho,d,r,seed",
            (
                (e, dh, se, p.n_samples, p.rho, p.d, p.r, f"{p.seed.master}:{p.seed.stream}")
                for p in profiles
                for e, dh, se in zip(p.eps_grid.tolist(), p.delta_hat.tolist(), p.stderr.tolist())
            ),
        )
        outputs.append(args.out)
    payload = {
        "kind": "privacy_profile_sweep",
        "inputs": {"rho": args.rho, "d": args.d, "delta": args.delta, "n": args.n},
        "per_rank": per_rank,
    }
    unreached = "not reached" if args.delta * args.n >= 1.0 else "below the 1/n resolution"
    summary = "; ".join(
        f"r={p['r']}: eps_hat({args.delta}) = "
        + (unreached if p["eps_hat"] is None else f"{p['eps_hat']:.4g}")
        for p in per_rank
    )
    _emit(args, payload, outputs, summary)
    return 0


def _cmd_amplify(args) -> int:
    threshold = mechanisms.amplification_threshold(args.rho, args.d, args.delta)
    gain = mechanisms.amplification_gain(args.rho, args.gamma, args.d, args.delta)
    payload = {
        "kind": "amplification",
        "inputs": {"rho": args.rho, "gamma": args.gamma, "d": args.d, "delta": args.delta},
        "threshold": threshold,
        "gain": gain,
    }
    if args.trials < 0:
        raise DomainError(f"--trials must be >= 0, got {args.trials}")
    if args.trials:
        seed = _seed(args)
        v = np.zeros(args.d)
        v[0] = 1.0
        v2 = np.zeros(args.d)
        v2[0] = args.rho
        v2[1] = math.sqrt(max(0.0, 1.0 - args.rho**2))
        hits = 0
        for t in range(args.trials):
            trial_seed = seed.child(t)
            a = mechanisms.amplify_alignment(v, args.gamma, trial_seed)
            b = mechanisms.amplify_alignment(v2, args.gamma, trial_seed)
            cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            hits += cos >= args.rho + gain
        payload["empirical"] = {"trials": args.trials, "success_rate": hits / args.trials}
    _emit(
        args,
        payload,
        [],
        f"guaranteed gain s = {gain:.6g} above threshold gamma > {threshold:.6g}"
        + (
            f"; empirical success {payload['empirical']['success_rate']:.4f}"
            if args.trials
            else ""
        ),
    )
    return 0


def _cmd_separate(args) -> int:
    if args.d < 1 or args.n < 1:
        raise DomainError(f"a query output needs d >= 1 rows and n >= 1 columns, got d={args.d}, n={args.n}")
    seed = _seed(args)
    rng = seed.child(0).generator()
    V = rng.standard_normal((args.d, args.n))
    Vp = V.copy()
    Vp[:, 0] = rng.standard_normal(args.d)
    result = attacks.separation_trial(V, Vp, r=args.r, n_trials=args.trials, seed=seed.child(1))
    _emit(
        args,
        {"kind": "separation", **dataclasses.asdict(result)},
        [],
        f"{result.n_equal} coincidences in {result.n_trials} trials "
        f"(max residual {result.max_residual:.4g})",
    )
    return 0


def _cmd_spectrum(args) -> int:
    if args.d < 1 or args.r < 1 or not math.isfinite(args.t):
        raise DomainError(f"the interval needs d, r >= 1 and a finite t, got {args.d}, {args.r}, {args.t}")
    if args.draws < 1:
        raise DomainError(f"--draws must be >= 1, got {args.draws}")
    lo = max((math.sqrt(args.d / args.r) - 1.0 - args.t / math.sqrt(args.r)) ** 2, 0.0)
    hi = (math.sqrt(args.d / args.r) + 1.0 + args.t / math.sqrt(args.r)) ** 2
    seed = _seed(args)
    within = 0
    for i in range(args.draws):
        draw = wishart_draw(args.d, args.r, seed.child(i))
        eigs = draw.nonzero_eigenvalues()
        within += bool(eigs.min() >= lo and eigs.max() <= hi)
    payload = {
        "kind": "wishart_spectrum",
        "inputs": {"d": args.d, "r": args.r, "t": args.t},
        "interval": [lo, hi],
        "draws": args.draws,
        "n_within": within,
    }
    _emit(args, payload, [], f"{within}/{args.draws} draws inside [{lo:.4g}, {hi:.4g}]")
    return 0


def _cmd_mia(args) -> int:
    seed = _seed(args)
    task = trainer.make_logistic_task(args.n_data, args.d, args.classes, seed.child(0), reg=args.reg)
    cfg = trainer.DpTrainConfig(
        T=args.steps,
        eta=args.eta,
        mechanism=trainer.Mechanism(args.mechanism),
        sigma=args.sigma,
        clip=args.clip if args.clip is not None else math.inf,
        r=args.r,
    )
    canary = attacks.craft_canary(task, cfg, seed.child(1))
    result = attacks.run_mia(task, cfg, canary, args.n_in, args.n_out, seed.child(2))
    outputs = []
    if args.out:
        # label 1 marks the models trained with the canary
        rows = [(1, s) for s in result.scores_in.tolist()] + [(0, s) for s in result.scores_out.tolist()]
        _write_csv(args.out, "label,score", rows)
        outputs.append(args.out)
    payload = {
        "kind": "mia",
        "n_in": result.scores_in.size,
        "n_out": result.scores_out.size,
        "auc": result.auc,
        "auc_stderr": result.auc_stderr(),
        "balanced_acc": result.balanced_acc,
        "threshold": result.threshold,
        "canary_label": canary.y_q,
    }
    _emit(
        args,
        payload,
        outputs,
        f"AUC = {result.auc:.4f} (+-{result.auc_stderr():.4f}), "
        f"balanced accuracy = {result.balanced_acc:.4f}",
    )
    return 0


def _cmd_train(args) -> int:
    cfg = trainer.load_config(args.config)
    seed = _seed(args)
    # trainer.train draws the adapter from child 0 and the steps from child 1;
    # the data take child 2, a stream of their own.
    if args.task == "ridge":
        task = trainer.make_ridge_task(args.n, args.d, seed.child(2), reg=args.reg)
    else:
        task = trainer.make_logistic_task(args.n, args.d, args.classes, seed.child(2), reg=args.reg)
    rows = []
    steps = zip(trainer.train(task, cfg, seed), trainer.budget_spent(cfg, task))
    for t, ((W, g), budget) in enumerate(steps, 1):
        loss = task.loss(W)
        if not math.isfinite(loss):
            raise DomainError(f"the run diverged: the loss after step {t} is {loss} (eta = {cfg.eta})")
        gnorm = math.nan if g is None else float(np.linalg.norm(g))
        rows.append((t, loss, gnorm, *budget))
    _, final_loss, _, eps, delta = rows[-1]
    outputs = []
    if args.out:
        _write_csv(args.out, "step,loss,grad_norm,eps_spent,delta_spent", rows)
        outputs.append(args.out)
    payload = {
        "kind": "training_run",
        "mechanism": cfg.mechanism.value,
        "final_loss": final_loss,
        "steps": cfg.T,
        # a run without noise spends (inf, 0): it has no budget to report
        "budget": {"eps": eps, "delta": delta} if math.isfinite(eps) else None,
    }
    _emit(args, payload, outputs, f"final loss {final_loss:.6g} after {cfg.T} steps")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_checks():
    ln = math.log
    sqrt = math.sqrt
    yield "normal_cdf(0) = 1/2", specialfn.normal_cdf(0.0), 0.5, 1e-15
    yield "normal_cdf(40) saturates", specialfn.normal_cdf(40.0), 1.0, 1e-15
    yield "normal_cdf(1.959964)", specialfn.normal_cdf(1.959964), 0.975, 1e-6
    yield "t_quantile(5, 1/2) = 0", specialfn.student_t_quantile(5, 0.5), 0.0, 1e-12
    yield "t_quantile(1, 0.975)", specialfn.student_t_quantile(1, 0.975), 12.7062, 1e-3
    yield "t_quantile(2, 0.95)", specialfn.student_t_quantile(2, 0.95), 2.9200, 1e-3
    yield "chi2_quantile(2, 0.95)", specialfn.chi2_quantile(2, 0.95), -2.0 * ln(0.05), 1e-9
    yield "chi2_quantile(1, 0.6826...)", specialfn.chi2_quantile(1, 0.6826894921), 1.0, 1e-6
    yield "reg_inc_beta(1, 2, 3) = 1", specialfn.reg_inc_beta(1.0, 2, 3), 1.0, 1e-15
    yield "reg_inc_beta(1/2, 1, 1) = 1/2", specialfn.reg_inc_beta(0.5, 1, 1), 0.5, 1e-13
    yield "reg_inc_beta(1/4, 2, 3)", specialfn.reg_inc_beta(0.25, 2, 3), 0.26171875, 1e-13
    yield "log_gamma(1) = 0", specialfn.log_gamma(1.0), 0.0, 1e-14
    yield "log_gamma(1/2) = ln sqrt(pi)", specialfn.log_gamma(0.5), ln(sqrt(math.pi)), 1e-12
    yield "log_gamma(5) = ln 24", specialfn.log_gamma(5.0), ln(24.0), 1e-12
    yield (
        "log_gamma recurrence at 3.7",
        specialfn.log_gamma(4.7) - specialfn.log_gamma(3.7),
        ln(3.7),
        1e-12,
    )
    for p in (0.01, 0.5, 0.99):
        for nu in (1, 5, 50):
            yield (
                f"t round-trip (nu={nu}, p={p})",
                specialfn.student_t_cdf(nu, specialfn.student_t_quantile(nu, p)),
                p,
                1e-9,
            )
            yield (
                f"chi2 round-trip (nu={nu}, p={p})",
                specialfn.chi2_cdf(nu, specialfn.chi2_quantile(nu, p)),
                p,
                1e-9,
            )
    yield (
        "beta reflection I_x(a,b) + I_{1-x}(b,a) = 1",
        specialfn.reg_inc_beta(0.3, 2.5, 4.0) + specialfn.reg_inc_beta(0.7, 4.0, 2.5),
        1.0,
        1e-13,
    )
    yield "trade-off T(1, 0) = 0", accountants.gaussian_tradeoff(1.0, 0.0), 0.0, 1e-15
    yield (
        "composition additivity",
        sum(accountants.compose_basic([(0.5, 0.0), (0.5, 0.0)])),
        1.0,
        1e-15,
    )
    draw = wishart_draw(12, 5, Seed(1, 0))
    x = Seed(2, 0).generator().standard_normal(12)
    quad = float(x @ draw.M @ x)
    yield "wishart PSD quadratic form", min(quad, 0.0), 0.0, 1e-9
    chi2_ten = specialfn.chi2_quantile(10, 1e-12)
    yield "chi2 lower-tail quantile in (0, 0.1)", float(0.0 < chi2_ten < 0.1), 1.0, 0.0


def _cmd_selftest(args) -> int:
    failures = 0
    results = []
    for name, got, want, tol in _selftest_checks():
        ok = abs(got - want) <= tol
        failures += not ok
        results.append({"check": name, "value": got, "expected": want, "tol": tol, "ok": ok})
        print(f"[{'ok' if ok else 'FAIL'}] {name}: got {got!r}, want {want!r} +- {tol}", file=sys.stderr)
    payload = {"kind": "selftest", "n_checks": len(results), "n_failed": failures, "checks": results}
    _emit(args, payload, [], f"selftest: {len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else _EXIT_SELFTEST


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="master seed (required; no silent entropy)")


class _Parser(argparse.ArgumentParser):
    """argparse with did-you-mean suggestions for unknown long flags."""

    def error(self, message):
        if "unrecognized arguments" in message:
            # suggest from every subcommand's flags, also when this parser holds only one
            tree = build_parser()
            known = sorted(
                {
                    opt
                    for action in tree._actions
                    for opt in getattr(action, "option_strings", [])
                }
                | {
                    opt
                    for action in tree._actions
                    if isinstance(action, argparse._SubParsersAction)
                    for sub in action.choices.values()
                    for sub_action in sub._actions
                    for opt in sub_action.option_strings
                }
            )
            for token in message.split(":", 1)[-1].split():
                if token.startswith("--"):
                    close = difflib.get_close_matches(token, known, n=1)
                    if close:
                        message += f" (did you mean {close[0]}?)"
        super().error(message)


def _account_vec_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, required=True, help="minimum alignment in (0, 1]")
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--r", type=int, required=True, help="projection rank")
    p.add_argument("--delta-prime", type=float, required=True, help="per-tail quantile budget delta'")
    p.add_argument("--support-samples", type=int, default=accountants.DEFAULT_SUPPORT_SAMPLES,
                   help="Monte Carlo samples for the support-failure term")
    _add_seed(p)
    p.set_defaults(func=_cmd_account_vec)


def _account_small_r_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sens", type=float, required=True, help="Frobenius sensitivity ||dV||_F")
    p.add_argument("--s", type=int, required=True, help="rank of the neighbor difference")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True, help="additive noise scale")
    p.add_argument("--alpha", type=float, required=True, help="capture level in (0, 1]")
    p.set_defaults(func=_cmd_account_small_r)


def _account_large_r_options(p: argparse.ArgumentParser) -> None:
    for flag, typ in (
        ("--d", int), ("--r", int), ("--s", int), ("--p", int),
        ("--delta-v", float), ("--sigma-g", float), ("--sigma-m", float),
        ("--beta", float), ("--delta-par", float), ("--rho-perp", float),
        ("--delta-prime-perp", float),
    ):
        p.add_argument(flag, type=typ, required=True)
    p.add_argument("--support-samples", type=int, default=accountants.DEFAULT_SUPPORT_SAMPLES)
    _add_seed(p)
    p.set_defaults(func=_cmd_account_large_r)


def _choose_alpha_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mu", type=float, required=True, help="||dV||_F^2 / sigma^2 of the baseline")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eta", type=float, required=True, help="capture slack in (0, 1)")
    p.set_defaults(func=_cmd_choose_alpha)


def _profile_mc_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=_int_list, required=True, help="comma-separated rank list")
    p.add_argument("--delta", type=float, required=True, help="target delta for the eps readout")
    p.add_argument("--n", type=int, default=10**6, help="samples per rank (default 1e6)")
    p.add_argument("--eps-grid", type=_float_list, default=None, help="explicit comma-separated grid")
    p.add_argument("--eps-max", type=float, default=8.0, help="grid upper end (default 8)")
    p.add_argument("--eps-step", type=float, default=0.02, help="grid step (default 0.02)")
    p.add_argument("--threads", type=_thread_count, default=os.environ.get("WISHART_DP_THREADS", "1"),
                   help="Monte Carlo chunk parallelism, capped at the CPU count "
                        "(default WISHART_DP_THREADS or 1)")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    _add_seed(p)
    p.set_defaults(func=_cmd_profile_mc)


def _amplify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True, help="shared-noise radius")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--trials", type=int, default=0, help="empirical trials (0 = formula only)")
    _add_seed(p)
    p.set_defaults(func=_cmd_amplify)


def _separate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="columns of the query output")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_separate)


def _spectrum_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=float, default=4.0, help="deviation parameter (default 4)")
    p.add_argument("--draws", type=int, default=100)
    _add_seed(p)
    p.set_defaults(func=_cmd_spectrum)


def _mia_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-data", type=int, default=200, help="|D| (default 200)")
    p.add_argument("--d", type=int, default=20, help="feature dimension")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--mechanism", choices=[m.value for m in trainer.Mechanism], required=True)
    p.add_argument("--r", type=int, required=True, help="adapter rank")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--sigma", type=float, default=None, help="noise scale (noisy mechanisms)")
    p.add_argument("--clip", type=float, default=None, help="Frobenius clipping threshold")
    p.add_argument("--reg", type=float, default=1e-4, help="L2 regularizer of the task")
    p.add_argument("--n-in", type=int, default=200)
    p.add_argument("--n-out", type=int, default=200)
    p.add_argument("--out", type=str, default=None, help="write (label, score) CSV here")
    _add_seed(p)
    p.set_defaults(func=_cmd_mia)


def _train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=["ridge", "logistic"], required=True)
    p.add_argument("--config", type=str, required=True, help="flat key = value config file")
    p.add_argument("--n", type=int, default=200, help="dataset size")
    p.add_argument("--d", type=int, default=32, help="feature dimension")
    p.add_argument("--classes", type=int, default=10, help="classes (logistic only)")
    p.add_argument("--reg", type=float, default=1e-3)
    p.add_argument("--out", type=str, default=None, help="trajectory CSV path")
    _add_seed(p)
    p.set_defaults(func=_cmd_train)


def _selftest_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_selftest)


# name: (help line, options builder), in the order help lists them
_SUBCOMMANDS = {
    "account-vec": ("closed-form vector bound at minimum alignment rho", _account_vec_options),
    "account-small-r": ("small-rank noisy-projection bound", _account_small_r_options),
    "account-large-r": ("large-rank noisy-projection bound", _account_large_r_options),
    "choose-alpha": ("certify the small-r improvement over the Gaussian baseline", _choose_alpha_options),
    "profile-mc": ("Monte Carlo privacy profile of the vector mechanism", _profile_mc_options),
    "amplify": ("alignment amplification gain and empirical check", _amplify_options),
    "separate": ("almost-sure separation of the noise-free matrix mechanism", _separate_options),
    "spectrum": ("nonzero-eigenvalue concentration of Wishart draws", _spectrum_options),
    "mia": ("shadow-model membership inference on a synthetic task", _mia_options),
    "train": ("run a private training loop from a config file", _train_options),
    "selftest": ("kernel evaluation table and fast invariant checks", _selftest_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The wishart-dp parser; with a subcommand name, only that subcommand is built.

    A one-subcommand parser parses that subcommand's arguments, and prints its
    usage and errors, exactly as the whole tree does: its usage line spells
    out the subcommand list that the whole tree reads from its subparsers.
    """
    parser = _Parser(
        prog="wishart-dp",
        description="Wishart projection mechanisms: sampling, privacy accounting, profiling, attacks, training",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_options) in _SUBCOMMANDS.items():
        if command is None or command == name:
            add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds only its own subcommand; help, --version and a mistyped
    # subcommand get the whole tree
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WishartDpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
