"""Golden corpus: small CLI runs whose outputs must not move unannounced.

Each case runs cli.main in-process and records its parsed stdout (the
manifest aside) and its --out CSV. The test compares a fresh run with
tests/golden/corpus.json: strings, ints, bools, nulls and key sets exactly,
floats to a relative FLOAT_RTOL with a FLOAT_ATOL floor. That absorbs a
reassociated sum, but not a moved random stream or a changed formula. A
failure lists every moved key with both values.

A change that moves an output on purpose regenerates the corpus with
`python tests/golden/regenerate.py` and lists the moved keys in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

from wishart_dp import cli

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "corpus.json")
FLOAT_RTOL = 1e-12
FLOAT_ATOL = 1e-300

_DP_LORA_CFG = """\
T = 50
eta = 0.1
mechanism = dp_lora_fa
eps_target = 8.0
delta_target = 1e-5
clip = 2.0
r = 8
"""

_NOISY_PROJ_CFG = """\
T = 40
eta = 0.02
mechanism = noisy_proj
sigma = 8.0
clip = 1.0
eps_target = 2.0
r = 8
"""

# name: (argv, config file text or None); {out} and {config} name files in a
# scratch directory. Sizes are small: the whole corpus runs in under a second.
CASES = {
    "account-vec": (
        "account-vec --rho 0.999 --d 400 --r 128 --delta-prime 1e-3 --seed 7 --support-samples 10000",
        None,
    ),
    # the support Monte Carlo on chunks where Phi is mostly exactly 0 (a
    # partial last chunk included), and on chunks where every draw is live
    "account-vec-support-mixed": (
        "account-vec --rho 0.999 --d 400 --r 8 --delta-prime 1e-3 --seed 7 --support-samples 200000",
        None,
    ),
    "account-vec-support-dense": (
        "account-vec --rho 0.97 --d 50 --r 4 --delta-prime 1e-3 --seed 7 --support-samples 10000",
        None,
    ),
    "account-small-r": (
        "account-small-r --eps 1 --sens 1 --s 1 --d 2048 --r 32 --sigma 0.5 --alpha 0.0235",
        None,
    ),
    "account-large-r": (
        "account-large-r --d 200 --r 150 --s 20 --p 20 --delta-v 0.1 --sigma-g 1.0 --sigma-m 0.0816 "
        "--beta 0.01 --delta-par 1e-5 --rho-perp 0.999 --delta-prime-perp 1e-3 --seed 3 "
        "--support-samples 10000",
        None,
    ),
    "choose-alpha": ("choose-alpha --eps 1 --mu 4 --s 1 --d 2048 --r 64 --eta 0.5", None),
    "profile-mc": (
        "profile-mc --rho 0.999 --d 400 --r 16,32 --delta 0.01 --n 20000 --eps-step 0.1 --seed 7 --out {out}",
        None,
    ),
    "amplify": ("amplify --rho 0.2 --gamma 1.0 --d 4000 --delta 0.01 --trials 100 --seed 5", None),
    "separate": ("separate --d 8 --n 3 --r 2 --trials 1000 --seed 7", None),
    "spectrum": ("spectrum --d 200 --r 10 --t 4 --draws 20 --seed 9", None),
    "mia": (
        "mia --n-data 60 --d 40 --classes 4 --mechanism noisy_proj --r 16 --steps 20 --eta 0.1 "
        "--sigma 1.0 --clip 1.0 --n-in 4 --n-out 4 --seed 21 --out {out}",
        None,
    ),
    "train-ridge-dp-lora": (
        "train --task ridge --config {config} --n 200 --d 32 --seed 3 --out {out}",
        _DP_LORA_CFG,
    ),
    "train-logistic-noisy-proj": (
        "train --task logistic --config {config} --n 100 --d 32 --classes 4 --seed 3 --out {out}",
        _NOISY_PROJ_CFG,
    ),
}


def run_case(name: str) -> dict:
    """Run one case in-process: its parsed stdout without the manifest, and its CSV rows."""
    argv, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = os.path.join(tmp, "out.csv"), os.path.join(tmp, "run.cfg")
        if config is not None:
            with open(cfg, "w") as fh:
                fh.write(config)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv.format(out=out, config=cfg).split())
        if code != 0:
            raise AssertionError(f"{name} exited {code}")
        payload = json.loads(stdout.getvalue())
        del payload["manifest"]
        result = {"stdout": payload}
        if os.path.exists(out):
            with open(out) as fh:
                result["csv"] = [line.split(",") for line in fh.read().splitlines()]
    return result


def _cell(text: str):
    """A CSV cell as the value it spells: an int, a float (inf and nan included) or a string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def moved(want, got, path: str = "") -> list[str]:
    """Every place where got differs from want, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        diffs = [f"{path}/{k}: missing" for k in sorted(want.keys() - got.keys())]
        diffs += [f"{path}/{k}: unexpected" for k in sorted(got.keys() - want.keys())]
        for k in sorted(want.keys() & got.keys()):
            diffs += moved(want[k], got[k], f"{path}/{k}")
        return diffs
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in moved(w, g, f"{path}[{i}]")]
    if isinstance(want, str) and isinstance(got, str):
        want, got = _cell(want), _cell(got)
    if type(want) is float and type(got) is float:
        if math.isfinite(want) and math.isfinite(got):
            same = abs(want - got) <= max(FLOAT_RTOL * max(abs(want), abs(got)), FLOAT_ATOL)
        else:
            same = want == got or (math.isnan(want) and math.isnan(got))
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{path}: {want!r} -> {got!r}"]


def load_corpus() -> dict:
    with open(CORPUS) as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(load_corpus()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    diffs = moved(load_corpus()[name], run_case(name))
    assert not diffs, f"{len(diffs)} moved:\n" + "\n".join(diffs)


def test_moved_lists_every_key_with_both_values():
    want = {"a": 1.0, "b": [1, "x", None, True], "c": "0.5"}
    got = {"a": 1.0 + 1e-10, "b": [1.0, "x", None, False], "c": "0.5000000000001", "d": 2}
    assert moved(want, got) == [
        "/d: unexpected",
        "/a: 1.0 -> 1.0000000001",
        "/b[0]: 1 -> 1.0",
        "/b[3]: True -> False",
    ]
    assert moved({"x": 1e-310, "y": "nan", "z": math.inf}, {"x": 0.0, "y": "nan", "z": math.inf}) == []
