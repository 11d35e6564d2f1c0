"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of ``wishart_dp`` from outside the
package: it replaces the attribute each caller actually looks up (the
function's own module global, class attributes for methods, and the copies
other modules bound with ``from ... import``). Every call records one span
(name, start, end, parent) in compact in-memory arrays; self times are derived
after the run as span duration minus the duration of direct child spans.

A layer whose function no longer exists, or whose importer no longer holds the
same object, is skipped: it then reports zero calls instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import io
import sys
import time
from array import array

import numpy as np

from wishart_dp.errors import WishartDpError

# (span name, owner inside wishart_dp, attribute, modules holding an imported copy)
LAYERS = [
    ("specialfn.normal_cdf", "specialfn", "normal_cdf", ("accountants",)),
    ("specialfn.normal_pdf", "specialfn", "normal_pdf", ()),
    ("specialfn.log_gamma", "specialfn", "log_gamma", ("profiler",)),
    ("specialfn.reg_inc_gamma", "specialfn", "reg_inc_gamma", ()),
    ("specialfn.reg_inc_beta", "specialfn", "reg_inc_beta", ("accountants",)),
    ("specialfn.student_t_cdf", "specialfn", "student_t_cdf", ()),
    ("specialfn.chi2_cdf", "specialfn", "chi2_cdf", ()),
    ("specialfn.normal_quantile", "specialfn", "normal_quantile", ()),
    ("specialfn.student_t_quantile", "specialfn", "student_t_quantile", ("accountants",)),
    ("specialfn.chi2_quantile", "specialfn", "chi2_quantile", ("accountants",)),
    ("randmat.Seed.generator", "randmat.Seed", "generator", ()),
    ("randmat.Seed.child", "randmat.Seed", "child", ()),
    ("randmat.sample_gaussian_matrix", "randmat", "sample_gaussian_matrix", ("trainer",)),
    ("mechanisms.noisy_mech", "mechanisms", "noisy_mech", ()),
    ("accountants.account_small_r", "accountants", "account_small_r", ()),
    ("accountants.account_vec", "accountants", "account_vec", ()),
    ("accountants.account_large_r", "accountants", "account_large_r", ()),
    ("accountants.choose_alpha", "accountants", "choose_alpha", ()),
    ("profiler.sample_ratio_arrays", "profiler", "sample_ratio_arrays", ()),
    ("profiler.privacy_loss_array", "profiler", "privacy_loss_array", ()),
    ("profiler.delta_support", "profiler", "delta_support", ()),
    ("profiler.mc_privacy_profile", "profiler", "mc_privacy_profile", ()),
    ("attacks.craft_canary", "attacks", "craft_canary", ()),
    ("attacks.roc_auc", "attacks", "roc_auc", ()),
    ("trainer.TrainTask.per_example_grad_W", "trainer.TrainTask", "per_example_grad_W", ()),
    ("trainer.TrainTask.grad_W", "trainer.TrainTask", "grad_W", ()),
    ("trainer.TrainTask.loss", "trainer.TrainTask", "loss", ()),
    ("trainer.fit", "trainer", "fit", ()),
    ("trainer.dp_lora_fa", "trainer", "dp_lora_fa", ()),
    ("trainer.noisy_proj_step", "trainer", "noisy_proj_step", ()),
    ("trainer.noisy_proj_budget", "trainer", "noisy_proj_budget", ()),
    ("trainer.rp_gd", "trainer", "rp_gd", ()),
    ("cli.main", "cli", "main", ()),
]

MODULES = ("specialfn", "randmat", "mechanisms", "accountants", "profiler", "attacks", "trainer", "cli")


def _tell(stream) -> int | None:
    """Characters written so far to a captured (in-memory) stdout."""
    return stream.tell() if isinstance(stream, io.StringIO) else None


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"wishart_dp.{module}")
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory spans plus the counters that are cheapest to take at the call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors = dict.fromkeys(MODULES, 0)
        self.counters = {"per_example_grad_bytes": 0, "loss_samples": 0, "support_samples": 0}
        self.support_calls: list[tuple[float, int, float]] = []
        self.stdout_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        nid = self._id(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except WishartDpError:
            self._count_error(name, self.parent[i])
            raise
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _count_error(self, name: str, parent: int) -> None:
        # Count an error once per module boundary it crosses.
        module = name.split(".", 1)[0]
        if parent < 0 or self.names[self.name_id[parent]].split(".", 1)[0] != module:
            if module in self.errors:
                self.errors[module] += 1

    def _wrap(self, name: str, fn):
        span = self.span
        counters = self.counters
        if name == "trainer.TrainTask.per_example_grad_W":
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                counters["per_example_grad_bytes"] += out.size * out.itemsize
                return out
        elif name == "profiler.privacy_loss_array":
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                counters["loss_samples"] += out.size
                return out
        elif name == "profiler.delta_support":
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                bound = signature.bind(*args, **kwargs).arguments
                counters["support_samples"] += bound["n"]
                self.support_calls.append((bound["rho"], bound["r"], out[0]))
                return out
        elif name == "cli.main":
            def wrapper(*args, **kwargs):
                before = _tell(sys.stdout)
                code = span(name, fn, *args, **kwargs)
                after = _tell(sys.stdout)
                if before is not None and after is not None:
                    self.stdout_bytes += after - before
                if code:
                    # the CLI turns WishartDpError into exit codes 3 and 4
                    self.errors["cli"] += 1
                return code
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every layer that exists in this version of the library."""
        for name, owner, attr, importers in LAYERS:
            target = _resolve(owner)
            original = target.__dict__.get(attr)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)
            for mod_name in importers:
                mod = _resolve(mod_name)
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span self time and name id: duration minus direct children's durations."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - child, names

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        self_s, names = self.self_times()
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        secs = np.bincount(names, weights=self_s, minlength=n)
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def child_calls(self, child: str, parent: str) -> int:
        """Number of spans named child whose direct parent span is named parent."""
        if child not in self._ids or parent not in self._ids:
            return 0
        parents = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        mask = (names == self._ids[child]) & (parents >= 0)
        return int(np.sum(names[parents[mask]] == self._ids[parent]))

    def save(self, path) -> None:
        """Write every span once, at the end of the run."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


# ---------------------------------------------------------------------------
# per-layer metrics, each per traced operation
# ---------------------------------------------------------------------------

CALLS = (
    "trainer.TrainTask.per_example_grad_W",
    "trainer.TrainTask.grad_W",
    "trainer.TrainTask.loss",
    "randmat.Seed.generator",
    "randmat.Seed.child",
    "mechanisms.noisy_mech",
    "accountants.account_small_r",
    "profiler.delta_support",
    "specialfn.reg_inc_beta",
    "specialfn.normal_cdf",
    "cli.main",
)
SELF_S = (
    "trainer.TrainTask.per_example_grad_W",
    "trainer.fit",
    "trainer.noisy_proj_step",
    "trainer.noisy_proj_budget",
    "trainer.dp_lora_fa",
    "trainer.rp_gd",
    "trainer.TrainTask.grad_W",
    "trainer.TrainTask.loss",
    "randmat.Seed.generator",
    "randmat.sample_gaussian_matrix",
    "mechanisms.noisy_mech",
    "accountants.account_small_r",
    "accountants.account_vec",
    "accountants.account_large_r",
    "accountants.choose_alpha",
    "profiler.sample_ratio_arrays",
    "profiler.privacy_loss_array",
    "profiler.mc_privacy_profile",
    "profiler.delta_support",
    "specialfn.student_t_quantile",
    "specialfn.chi2_quantile",
    "attacks.craft_canary",
    "attacks.roc_auc",
    "cli.main",
)


def _support_rel_err(calls) -> float:
    """Largest |MC - exact| / exact over the delta_support calls of the run."""
    from scipy.special import stdtr

    worst = 0.0
    for rho, r, estimate in calls:
        if rho >= 1.0:
            continue
        exact = float(stdtr(r, -rho * np.sqrt(r) / np.sqrt(1.0 - rho * rho)))
        if exact > 0.0:
            worst = max(worst, abs(estimate - exact) / exact)
    return worst


def per_layer(rec: Recorder, n_ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json."""
    totals = rec.layer_totals()
    calls = lambda name: totals.get(name, (0, 0.0))[0]
    secs = lambda name: totals.get(name, (0, 0.0))[1]
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls(name) / n_ops, "calls/op")
    for name in SELF_S:
        out[f"{name}.self_s"] = (secs(name) / n_ops, "s/op")
    special = [name for name in totals if name.startswith("specialfn.")]
    out["specialfn.calls"] = (sum(calls(n) for n in special) / n_ops, "calls/op")
    out["specialfn.self_s"] = (sum(secs(n) for n in special) / n_ops, "s/op")
    out["trainer.TrainTask.per_example_grad_W.bytes_computed"] = (
        rec.counters["per_example_grad_bytes"] / n_ops, "B/op")
    steps = calls("trainer.noisy_proj_step")
    ratio = rec.child_calls("accountants.account_small_r", "trainer.noisy_proj_step") / steps if steps else 0.0
    out["accountants.small_r_calls_per_proj_step"] = (ratio, "calls/step")
    out["profiler.loss_samples"] = (rec.counters["loss_samples"] / n_ops, "samples/op")
    out["profiler.support_samples"] = (rec.counters["support_samples"] / n_ops, "samples/op")
    out["profiler.delta_support.rel_err"] = (_support_rel_err(rec.support_calls), "frac")
    out["cli.stdout_bytes"] = (rec.stdout_bytes / n_ops, "B/op")
    for module in MODULES:
        out[f"{module}.errors"] = (rec.errors[module] / n_ops, "errors/op")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out
