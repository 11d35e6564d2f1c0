"""CLI contract tests: exit codes, JSON/CSV outputs, manifests, reproducibility."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import wishart_dp
from wishart_dp import accountants, cli, specialfn, trainer
from wishart_dp.accountants import account_small_r, gaussian_tradeoff
from wishart_dp.randmat import Seed


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def run_cli(capsys, *argv):
    """Run cli.main in-process; the stdout of a run that exits 0 must be strict JSON."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    if code == 0:
        json.loads(captured.out, parse_constant=_reject_constant)
    return code, captured.out, captured.err


def test_account_vec_json(capsys):
    code, out, err = run_cli(
        capsys,
        "account-vec", "--rho", "0.999", "--d", "400", "--r", "128",
        "--delta-prime", "1e-3", "--seed", "7", "--support-samples", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "vec_account"
    assert payload["epsilon"] == pytest.approx(5.8779, abs=1e-3)
    assert payload["delta"] == pytest.approx(0.003, abs=1e-9)
    assert payload["manifest"]["subcommand"] == "account-vec"
    assert payload["manifest"]["seed"] == {"master": 7, "stream": 0}
    assert "eps" in err or "vector" in err


def test_account_small_r_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "account-small-r", "--eps", "1.0", "--sens", "1.0", "--s", "1",
        "--d", "2048", "--r", "32", "--sigma", "0.5", "--alpha", "0.0235",
    )
    assert code == 0
    payload = json.loads(out)
    rep = account_small_r(eps=1.0, sens_frob=1.0, s=1, d=2048, r=32, sigma=0.5, alpha=0.0235)
    assert payload["delta"] == pytest.approx(rep.delta_total, rel=1e-12)


def test_choose_alpha_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "choose-alpha", "--eps", "1.0", "--mu", "4.0", "--s", "1",
        "--d", "2048", "--r", "64", "--eta", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(0.046875, rel=1e-12)
    assert payload["delta"] < payload["delta_gauss"]


def test_choose_alpha_exits_3_when_alpha0_underflows():
    # alpha0 needs the largest mu within delta_Gauss / 2 at eps = 1e-200, about
    # 1e-400; a subprocess with a timeout turns a bisection that never ends into
    # a failure
    src = os.path.dirname(os.path.dirname(wishart_dp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wishart_dp.cli", "choose-alpha", "--eps", "1e-200", "--mu", "4",
         "--s", "1", "--d", "2048", "--r", "64", "--eta", "0.5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "normal float range" in proc.stderr


def test_account_large_r_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "account-large-r", "--d", "200", "--r", "150", "--s", "20", "--p", "20",
        "--delta-v", "0.1", "--sigma-g", "1.0", "--sigma-m", str(1 / math.sqrt(150)),
        "--beta", "0.01", "--delta-par", "1e-5", "--rho-perp", "0.999",
        "--delta-prime-perp", "1e-3", "--seed", "3", "--support-samples", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == pytest.approx(
        payload["intermediates"]["eps_par"] + payload["intermediates"]["eps_perp"], rel=1e-12
    )


def test_profile_mc_csv_and_manifest(capsys, tmp_path):
    out_csv = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys,
        "profile-mc", "--rho", "0.999", "--d", "50", "--r", "4,8",
        "--delta", "0.05", "--n", "20000", "--seed", "7",
        "--eps-max", "4.0", "--eps-step", "0.1", "--out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["r"] for p in payload["per_rank"]] == [4, 8]
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "eps,delta_hat,stderr,n,rho,d,r,seed"
    assert len(lines) == 1 + 2 * 41
    manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "profile-mc"
    assert manifest["outputs"] == [str(out_csv)]


def test_manifest_names_the_seed_streams_consumed(capsys, tmp_path):
    # profile-mc draws rank r from Seed(seed, r), as its CSV's seed column says
    out_csv = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys,
        "profile-mc", "--rho", "0.999", "--d", "50", "--r", "4,8", "--delta", "0.05",
        "--n", "2000", "--seed", "7", "--eps-grid", "0,1", "--out", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] == {"master": 7, "streams": [4, 8]}
    assert {line.rsplit(",", 1)[1] for line in out_csv.read_text().splitlines()[1:]} == {"7:4", "7:8"}
    # every other subcommand draws from stream 0
    code, out, _ = run_cli(capsys, "spectrum", "--d", "10", "--r", "2", "--draws", "2", "--seed", "7")
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] == {"master": 7, "stream": 0}


def test_profile_mc_reports_null_when_delta_is_not_reached(capsys):
    # the grid ends at eps = 0.1, long before the profile falls to 0.01
    code, out, err = run_cli(
        capsys,
        "profile-mc", "--rho", "0.9", "--d", "50", "--r", "4", "--delta", "0.01",
        "--n", "1000", "--eps-max", "0.1", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["per_rank"] == [{"r": 4, "eps_hat": None}]
    assert "r=4: eps_hat(0.01) = not reached" in err


def test_profile_mc_says_when_delta_is_below_the_resolution(capsys):
    # at n = 1000 no grid resolves delta = 1e-5, however far it runs
    code, out, err = run_cli(
        capsys,
        "profile-mc", "--rho", "0.9", "--d", "50", "--r", "4", "--delta", "1e-5",
        "--n", "1000", "--eps-max", "3", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["per_rank"] == [{"r": 4, "eps_hat": None}]
    assert "r=4: eps_hat(1e-05) = below the 1/n resolution" in err
    assert "not reached" not in err


def test_profile_mc_byte_identical_reruns(capsys):
    args = (
        "profile-mc", "--rho", "0.99", "--d", "30", "--r", "4",
        "--delta", "0.05", "--n", "10000", "--seed", "11",
        "--eps-max", "3.0", "--eps-step", "0.5",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_profile_mc_threads_do_not_change_results(capsys):
    base = (
        "profile-mc", "--rho", "0.99", "--d", "30", "--r", "4",
        "--delta", "0.05", "--n", "300000", "--seed", "11",
        "--eps-max", "3.0", "--eps-step", "0.5",
    )
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out4, _ = run_cli(capsys, *base, "--threads", "4")
    # identical estimates; the manifests legitimately record the thread count
    assert json.loads(out1)["per_rank"] == json.loads(out4)["per_rank"]


_PROFILE_SMALL = (
    "profile-mc", "--rho", "0.99", "--d", "30", "--r", "4",
    "--delta", "0.05", "--n", "1000", "--seed", "11", "--eps-grid", "0.5,1",
)


@pytest.mark.parametrize("value", ["two", "0", "-1"])
def test_profile_mc_rejects_malformed_thread_env(capsys, monkeypatch, value):
    monkeypatch.setenv("WISHART_DP_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(_PROFILE_SMALL))
    assert exc.value.code == 2
    assert "WISHART_DP_THREADS" in capsys.readouterr().err
    # an explicit --threads overrides the variable, and other subcommands never read it
    code, out, _ = run_cli(capsys, *_PROFILE_SMALL, "--threads", "1")
    assert code == 0
    assert json.loads(out)["manifest"]["params"]["threads"] == 1
    assert run_cli(capsys, "selftest")[0] == 0


def test_profile_mc_reads_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("WISHART_DP_THREADS", "2")
    code, out, _ = run_cli(capsys, *_PROFILE_SMALL)
    assert code == 0
    assert json.loads(out)["manifest"]["params"]["threads"] == 2


def test_profile_mc_reads_thread_env_on_every_call(capsys, monkeypatch):
    # the default is read on every call, not frozen by an earlier one in the same process
    for value in (1, 2):
        monkeypatch.setenv("WISHART_DP_THREADS", str(value))
        code, out, _ = run_cli(capsys, *_PROFILE_SMALL)
        assert code == 0
        assert json.loads(out)["manifest"]["params"]["threads"] == value


def test_train_in_process_calls_match_a_fresh_process(capsys, tmp_path):
    # An in-process call builds only its subcommand: a usage error between two
    # runs leaves them unchanged, and both match a run in its own interpreter.
    cfg = tmp_path / "train.cfg"
    cfg.write_text("T = 10\neta = 0.1\nmechanism = dp_lora_fa\nsigma = 0.5\nclip = 1.0\nr = 4\n")
    out_csv = tmp_path / "traj.csv"
    argv = ["train", "--task", "ridge", "--config", str(cfg), "--n", "50", "--d", "8",
            "--seed", "4", "--out", str(out_csv)]

    def outputs(out):
        return out, out_csv.read_bytes(), (tmp_path / "traj.csv.manifest.json").read_bytes()

    code, out, _ = run_cli(capsys, *argv)
    first = outputs(out)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--bogus", "1"])
    assert exc.value.code == 2
    code2, out, _ = run_cli(capsys, *argv)
    assert code == code2 == 0
    assert outputs(out) == first
    src = os.path.dirname(os.path.dirname(wishart_dp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wishart_dp.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert outputs(proc.stdout) == first


def test_amplify_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "amplify", "--rho", "0.2", "--gamma", "1.0", "--d", "4000",
        "--delta", "0.01", "--trials", "200", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gain"] > 0.2
    assert payload["empirical"]["success_rate"] >= 0.99


def test_separate_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "separate", "--d", "8", "--n", "3", "--r", "2", "--trials", "10000", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_equal"] == 0
    assert payload["n_trials"] == 10000


def test_spectrum_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--d", "400", "--r", "20", "--t", "4.0",
        "--draws", "20", "--seed", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_within"] == 20


def test_train_subcommand(capsys, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("T = 20\neta = 0.05\nmechanism = dp_lora_fa\nsigma = 0.1\nclip = 1.0\nr = 4\n")
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys,
        "train", "--task", "ridge", "--config", str(cfg), "--n", "80", "--d", "16",
        "--seed", "3", "--out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "training_run"
    # 20 exactly composed Gaussian steps of mu = (2 clip / sigma)^2, at eps = 1 without a target
    assert payload["budget"]["eps"] == 1.0
    assert payload["budget"]["delta"] == pytest.approx(gaussian_tradeoff(1.0, 20 * (2 * 1.0 / 0.1) ** 2))
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm,eps_spent,delta_spent"
    assert len(lines) == 21


def test_train_calibrates_dp_lora_sigma_once_per_run(capsys, tmp_path, monkeypatch):
    # the README config: the loop and the per-step pricing share one calibration
    calibrate = accountants.max_gaussian_mu
    calls = []

    def counted(eps, delta):
        calls.append((eps, delta))
        return calibrate(eps, delta)

    monkeypatch.setattr(accountants, "max_gaussian_mu", counted)
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        "T = 50\neta = 0.1\nmechanism = dp_lora_fa\neps_target = 8.0\ndelta_target = 1e-5\n"
        "clip = 2.0\nr = 8\n"
    )
    code, _, _ = run_cli(
        capsys, "train", "--task", "ridge", "--n", "200", "--d", "32", "--config", str(cfg_path), "--seed", "1"
    )
    assert code == 0
    assert calls == [(8.0, 1e-5)]


def test_train_missing_config_exits_3(capsys, tmp_path):
    cfg_path = tmp_path / "nonexistent.cfg"
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and str(cfg_path) in err


@pytest.mark.parametrize(
    "task_kind, mechanism_lines",
    [
        ("ridge", "mechanism = noise_free_lora\n"),
        ("ridge", "mechanism = dp_lora_fa\nsigma = 0.1\nclip = 1.0\n"),
        ("ridge", "mechanism = dp_lora_fa\nsigma = 0\nclip = 1.0\n"),
        ("logistic", "mechanism = noisy_proj\nsigma = 0.5\nclip = 1.0\n"),
        ("ridge", "mechanism = rp_gd\n"),
    ],
    ids=["noise_free_lora", "dp_lora_fa", "dp_lora_fa_sigma0", "noisy_proj", "rp_gd"],
)
def test_train_matches_library_fit(capsys, tmp_path, task_kind, mechanism_lines):
    # The CLI trains through trainer.train(task, cfg, seed), as trainer.fit
    # does, and draws the data from child 2 of the same seed.
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("T = 50\neta = 0.05\nr = 8\n" + mechanism_lines)
    code, out, _ = run_cli(
        capsys,
        "train", "--task", task_kind, "--config", str(cfg_path), "--n", "200", "--d", "32",
        "--seed", "3",
    )
    assert code == 0
    if task_kind == "ridge":
        task = trainer.make_ridge_task(200, 32, Seed(3).child(2), reg=1e-3)
    else:
        task = trainer.make_logistic_task(200, 32, 10, Seed(3).child(2), reg=1e-3)
    cfg = trainer.load_config(cfg_path)
    W = trainer.fit(task, cfg, Seed(3))
    assert json.loads(out)["final_loss"] == task.loss(W)
    # the budget is the library's; a run without noise spends (inf, 0) and reports none
    eps, delta = trainer.budget_spent(cfg, task)[-1]
    assert json.loads(out)["budget"] == (None if eps == math.inf else {"eps": eps, "delta": delta})


@pytest.mark.parametrize(
    "bad_line",
    ["mechanism = bogus\n", "T = five\n", "clip = wide\n"],
    ids=["unknown_mechanism", "unparsable_int", "unparsable_float"],
)
def test_train_bad_config_value_exits_3(capsys, tmp_path, bad_line):
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("eta = 0.1\nr = 4\n" + bad_line)
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert f"{cfg_path}:3:" in err


@pytest.mark.parametrize(
    "line", ["alpha = 0.2\n", "redraw_each_step = false\n", "batch = 10\n"], ids=["alpha", "redraw_each_step", "batch"]
)
def test_train_removed_knob_exits_3_as_unknown_key(capsys, tmp_path, line):
    # the capture share is derived, rp_gd redraws M every step and every step uses the full batch
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("eta = 0.1\nT = 4\n" + line)
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert f"{cfg_path}:3: unknown config key {line.split()[0]!r}" in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "lines, field",
    [
        ("mechanism = dp_lora_fa\nsigma = 0.1\n", "clip"),
        ("mechanism = noisy_proj\nsigma = 0.5\nclip = 1.0\neps_target = 1.0\ndelta_target = 1e-9\n",
         "delta_target"),
        ("mechanism = dp_lora_fa\nsigma = 0.1\nclip = 1.0\ndelta_target = 1e-5\n", "delta_target"),
        ("mechanism = dp_lora_fa\nclip = 1.0\n", "sigma"),
        ("mechanism = dp_lora_fa\nclip = 1.0\ndelta_target = 1e-5\n", "sigma"),
        ("mechanism = noise_free_lora\nsigma = 0.5\n", "sigma"),
        ("mechanism = rp_gd\nsigma = 0.5\n", "sigma"),
    ],
    ids=["dp_lora_fa_noise_without_clip", "noisy_proj_delta_target", "dp_lora_fa_sigma_delta_target",
         "dp_lora_fa_without_noise", "dp_lora_fa_delta_target_only", "noise_free_lora_sigma", "rp_gd_sigma"],
)
def test_train_config_a_run_would_misread_exits_3(capsys, tmp_path, lines, field):
    # DP-LoRA would add noise to unclipped gradients, or none at all without
    # sigma or a target; noisy projection, and DP-LoRA at a given sigma, would
    # report a delta unrelated to the target they were given; noise-free LoRA
    # and rp_gd add no noise, whatever sigma says
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("T = 5\neta = 0.1\nr = 4\n" + lines)
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert field in err


def test_train_noisy_proj_without_sigma_exits_3(capsys, tmp_path):
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("T = 5\neta = 0.1\nmechanism = noisy_proj\nclip = 1.0\nr = 4\n")
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert "sigma" in err


@pytest.mark.parametrize(
    "bad_lines, field",
    [
        ("eta = 0.1\nsigma = nan\n", "sigma"),
        ("eta = 0.1\nsigma = inf\n", "sigma"),
        ("eta = 0.1\nsigma = -0.5\n", "sigma"),
        ("eta = nan\nsigma = 0.1\n", "eta"),
        ("eta = inf\nsigma = 0.1\n", "eta"),
        ("eta = 0\nsigma = 0.1\n", "eta"),
        ("eta = -0.1\nsigma = 0.1\n", "eta"),
        ("eta = 0.1\nsigma = 0.1\ndelta_target = 0\n", "delta_target"),
        ("eta = 0.1\nsigma = 0.1\ndelta_target = 1.5\n", "delta_target"),
        ("eta = 0.1\nsigma = 0.1\ndelta_target = nan\n", "delta_target"),
        ("eta = 0.1\neps_target = inf\ndelta_target = 1e-5\n", "eps_target"),
    ],
    ids=["sigma_nan", "sigma_inf", "sigma_negative", "eta_nan", "eta_inf", "eta_zero", "eta_negative",
         "delta_zero", "delta_above_one", "delta_nan", "eps_inf"],
)
def test_train_non_finite_or_out_of_range_config_exits_3(capsys, tmp_path, bad_lines, field):
    # DP-LoRA would read a NaN sigma as "no noise"; a NaN eta gives a NaN loss
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("T = 5\nr = 4\nmechanism = dp_lora_fa\nclip = 1.0\n" + bad_lines)
    code, out, err = run_cli(
        capsys, "train", "--task", "ridge", "--config", str(cfg_path), "--seed", "3"
    )
    assert code == 3
    assert out == ""
    assert field in err


def test_train_divergent_run_exits_3_at_the_first_non_finite_loss(capsys, tmp_path):
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("T = 200\neta = 50\nr = 4\nmechanism = noise_free_lora\n")
    out_csv = tmp_path / "traj.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(
            capsys,
            "train", "--task", "ridge", "--config", str(cfg_path), "--n", "50", "--d", "8",
            "--seed", "1", "--out", str(out_csv),
        )
        task = trainer.make_ridge_task(50, 8, Seed(1).child(2), reg=1e-3)
        steps = trainer.train(task, trainer.load_config(cfg_path), Seed(1))
        first = next(t for t, (W, _) in enumerate(steps, 1) if not math.isfinite(task.loss(W)))
    assert code == 3
    assert out == ""
    assert f"step {first} " in err and "diverged" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("eps_line, eps", [("", 1.0), ("eps_target = 2.0\n", 2.0)])
def test_train_noisy_proj_budget_columns(capsys, tmp_path, eps_line, eps):
    # each step reports eps_target (1 without one) and the budget spent at that eps
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        "T = 6\neta = 0.1\nmechanism = noisy_proj\nsigma = 0.5\nclip = 1.0\nr = 4\n" + eps_line
    )
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys,
        "train", "--task", "logistic", "--config", str(cfg_path), "--n", "40", "--d", "16",
        "--classes", "3", "--seed", "5", "--out", str(out_csv),
    )
    assert code == 0
    task = trainer.make_logistic_task(40, 16, 3, Seed(5).child(2), reg=1e-4)
    spent = trainer.budget_spent(trainer.load_config(cfg_path), task)
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 6
    for t, row in enumerate(rows, 1):
        assert int(row[0]) == t
        assert float(row[3]) == eps
        assert float(row[4]) == spent[t - 1][1]
    budget = json.loads(out)["budget"]
    assert budget == {"eps": eps, "delta": float(rows[-1][4])}


def test_mia_subcommand_fast(capsys, tmp_path):
    out_csv = tmp_path / "scores.csv"
    code, out, _ = run_cli(
        capsys,
        "mia", "--n-data", "60", "--d", "10", "--classes", "4",
        "--mechanism", "noise_free_lora", "--r", "16", "--steps", "40", "--eta", "1.0",
        "--n-in", "8", "--n-out", "8", "--seed", "21", "--out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["auc"] <= 1.0
    assert payload["n_in"] == 8 and payload["n_out"] == 8
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "label,score"
    assert len(lines) == 1 + 16
    # label 1 marks the models trained with the canary; they come first
    assert [line.split(",")[0] for line in lines[1:]] == ["1"] * 8 + ["0"] * 8


_ACCOUNT_KEYS = {"kind", "inputs", "intermediates", "epsilon", "delta", "manifest"}
_SMALL_R_INPUTS = {"eps", "sens_frob", "s", "d", "r", "sigma", "alpha"}
_SMALL_R_INTERMEDIATES = {"mu_bar", "delta_E", "delta_M", "delta_unclamped"}


@pytest.mark.parametrize(
    "argv, top, inputs, intermediates",
    [
        (
            "account-vec --rho 0.999 --d 400 --r 128 --delta-prime 1e-3 --seed 7 --support-samples 1000",
            _ACCOUNT_KEYS,
            {"rho", "d", "r", "delta_prime"},
            {"K", "a_minus", "a_plus", "b", "delta_support", "delta_support_stderr", "delta_unclamped"},
        ),
        (
            "account-small-r --eps 1 --sens 1 --s 1 --d 2048 --r 32 --sigma 0.5 --alpha 0.0235",
            _ACCOUNT_KEYS,
            _SMALL_R_INPUTS,
            _SMALL_R_INTERMEDIATES,
        ),
        (
            "account-large-r --d 200 --r 150 --s 20 --p 20 --delta-v 0.1 --sigma-g 1.0 --sigma-m 0.0816 "
            "--beta 0.01 --delta-par 1e-5 --rho-perp 0.999 --delta-prime-perp 1e-3 --seed 3 "
            "--support-samples 1000",
            _ACCOUNT_KEYS,
            {"d", "r", "s", "p", "delta_v", "sigma_G", "sigma_M", "beta", "delta_par", "rho_perp",
             "delta_prime_perp"},
            {"g_beta", "Gamma_beta", "eps_par", "eps_perp", "delta_perp", "delta_unclamped"},
        ),
        (
            "choose-alpha --eps 1 --mu 4 --s 1 --d 2048 --r 64 --eta 0.5",
            _ACCOUNT_KEYS | {"alpha", "delta_gauss"},
            _SMALL_R_INPUTS,
            _SMALL_R_INTERMEDIATES,
        ),
        (
            "separate --d 8 --n 3 --r 2 --trials 10 --seed 7",
            {"kind", "n_trials", "n_equal", "max_residual", "manifest"},
            None,
            None,
        ),
        (
            "mia --n-data 30 --d 6 --classes 3 --mechanism noise_free_lora --r 4 --steps 5 "
            "--eta 1.0 --n-in 2 --n-out 2 --seed 21",
            {"kind", "n_in", "n_out", "auc", "auc_stderr", "balanced_acc", "threshold",
             "canary_label", "manifest"},
            None,
            None,
        ),
    ],
    ids=["account-vec", "account-small-r", "account-large-r", "choose-alpha", "separate", "mia"],
)
def test_stdout_key_sets(capsys, argv, top, inputs, intermediates):
    # The JSON shapes are built in cli alone; this pins them key by key.
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == top
    if inputs is not None:
        assert set(payload["inputs"]) == inputs
        assert set(payload["intermediates"]) == intermediates


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["account-vec", "--rho", "0.9"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile-mc", "--rho", "0.9", "--d", "30", "--r", "4", "--delta", "0.1"])
    assert exc.value.code == 2  # --seed is required
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile-mc", "--rho", "0.9", "--d", "30", "--r", "4", "--delta", "0.1",
                  "--seed", "1", "--threads", "0"])
    assert exc.value.code == 2  # the thread count must be a positive integer
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile-mc", "--rho", "0.9", "--d", "30", "--r", "4", "--delta", "0.1",
                  "--seed", "1", "--stream", "5"])
    assert exc.value.code == 2  # no subcommand takes a substream; all draw from stream 0


def test_unknown_flag_gets_suggestion(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["separate", "--d", "8", "--n", "3", "--r", "2", "--trials", "10",
             "--seed", "7", "--trails", "10"]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "did you mean --trials" in err


def test_suggestion_draws_on_every_subcommand(capsys):
    # selftest has no flags of its own; the suggestion comes from another subcommand
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--trails", "10"])
    assert exc.value.code == 2
    assert "did you mean --trials" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_one_subcommand_parser_matches_the_whole_tree(name):
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    whole, one = cli.build_parser(), cli.build_parser(name)
    assert list(subparsers(one)) == [name]
    assert one.format_usage() == whole.format_usage()
    assert subparsers(one)[name].format_help() == subparsers(whole)[name].format_help()


def test_domain_error_exit_code_and_message(capsys):
    code, out, err = run_cli(
        capsys,
        "account-vec", "--rho", "0.1", "--d", "400", "--r", "16",
        "--delta-prime", "0.01", "--seed", "7",
    )
    assert code == 3
    assert "inadmissible" in err
    assert "rho" in err


@pytest.mark.parametrize(
    "argv",
    [
        "profile-mc --rho 0.9 --d 50 --r 4 --delta 0.01 --eps-step 0 --seed 1",
        "profile-mc --rho 0.9 --d 50 --r 4 --delta 0.01 --eps-max nan --seed 1",
        "profile-mc --rho 0.9 --d 50 --r 4 --delta nan --seed 1",
        "profile-mc --rho 0.9 --d 50 --r 4 --delta inf --seed 1",
        "spectrum --d 10 --r 0 --seed 1",
        "spectrum --d 10 --r 2 --t nan --seed 1",
        "spectrum --d 10 --r 2 --draws -3 --seed 1",
        "spectrum --d 10 --r 2 --draws 0 --seed 1",
        "separate --d 10 --n 0 --r 2 --trials 3 --seed 1",
        "separate --d=-1 --n 3 --r 2 --trials 3 --seed 1",
        "amplify --rho 0.5 --gamma 5 --d 1000 --delta 0.1 --trials -5 --seed 1",
        "mia --n-data=-1 --mechanism noise_free_lora --r 4 --steps 5 --eta 1 --seed 1",
        "mia --d=-1 --mechanism noise_free_lora --r 4 --steps 5 --eta 1 --seed 1",
        "account-small-r --eps 1 --sens 1 --s 1 --d 2048 --r 32 --sigma inf --alpha 0.0235",
        "account-small-r --eps inf --sens 1 --s 1 --d 2048 --r 32 --sigma 0.5 --alpha 0.0235",
        "choose-alpha --eps inf --mu 4 --s 1 --d 2048 --r 64 --eta 0.5",
        "choose-alpha --eps 1 --mu inf --s 1 --d 2048 --r 64 --eta 0.5",
    ],
    ids=["eps_step_zero", "eps_max_nan", "profile_delta_nan", "profile_delta_inf", "spectrum_r_zero",
         "spectrum_t_nan", "spectrum_draws_negative", "spectrum_draws_zero", "separate_n_zero",
         "separate_d_negative", "amplify_negative_trials", "mia_n_data_negative", "mia_d_negative",
         "small_r_sigma_inf", "small_r_eps_inf", "choose_alpha_eps_inf", "choose_alpha_mu_inf"],
)
def test_out_of_domain_flags_exit_3(capsys, monkeypatch, argv):
    # each is rejected before anything is drawn: exit 3, one error line and
    # no JSON on stdout
    def no_draws(seed):
        raise AssertionError(f"{argv}: a generator was built before the rejection")

    monkeypatch.setattr(Seed, "generator", no_draws)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_failed"] == 0
    assert "[ok]" in err


def test_selftest_detects_injected_fault(capsys, monkeypatch):
    # A corrupted quantile must surface as a self-test failure (exit 4).
    monkeypatch.setattr(specialfn, "chi2_quantile", lambda nu, p: 1234.5)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 4
    payload = json.loads(out)
    assert payload["n_failed"] > 0


def test_cli_import_loads_only_scipy_special():
    # scipy.optimize and scipy.stats would add their import time and memory to
    # every CLI start.
    src = os.path.dirname(os.path.dirname(wishart_dp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, wishart_dp.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile-mc", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--rho", "--d", "--r", "--delta", "--n", "--seed", "--threads", "--out"):
        assert flag in out
