"""The public surface of wishart_dp, name by name, with the role that keeps each.

Every public function and class that a wishart_dp module defines, and every
public method and property of those classes, has one entry in SURFACE:

* library: other library code calls it, or takes or returns it;
* cli: the command line front end;
* paper: an object of the paper that tests check directly, although no
  library code calls it;
* oracle: a reference that tests compare the library against; no library code
  calls it.

A public name added or deleted without an edit here fails the test, so every
change to the surface states why the new name is there.
"""

import importlib
import inspect
import pkgutil

import wishart_dp

ROLES = {"library", "cli", "paper", "oracle"}

SURFACE = {
    "accountants.AlignmentSpec": "library",
    "accountants.LargeRReport": "library",
    "accountants.SmallRReport": "library",
    "accountants.VecAccountReport": "library",
    "accountants.account_large_r": "library",
    "accountants.account_small_r": "library",
    "accountants.account_vec": "library",
    "accountants.choose_alpha": "library",
    "accountants.compose_basic": "paper",  # basic composition; the selftest checks its additivity
    "accountants.compose_gaussian_steps": "library",
    "accountants.delta_M_bound": "library",
    "accountants.gaussian_tradeoff": "library",
    "accountants.max_gaussian_mu": "library",
    "accountants.min_alignment": "paper",  # rho, the alignment condition of the vector bound
    "accountants.vec_admissibility_threshold": "library",
    "attacks.Canary": "library",
    "attacks.MiaResult": "library",
    "attacks.MiaResult.auc_stderr": "library",
    "attacks.SeparationResult": "library",
    "attacks.craft_canary": "library",
    "attacks.roc_auc": "library",
    "attacks.run_mia": "library",
    "attacks.separation_trial": "library",
    "cli.build_parser": "cli",
    "cli.main": "cli",
    "errors.ConfigError": "library",
    "errors.DegenerateInputError": "library",
    "errors.DomainError": "library",
    "errors.InadmissibleAlignmentError": "library",
    "errors.OutsideSupportError": "library",
    "errors.PreconditionError": "library",
    "errors.RegimeError": "library",
    "errors.WishartDpError": "library",
    "mechanisms.NoiseBlock": "library",
    "mechanisms.NoiseBlock.release": "library",
    "mechanisms.NoisyMechParams": "library",
    "mechanisms.Variant": "library",
    "mechanisms.amplification_gain": "library",
    "mechanisms.amplification_threshold": "library",
    "mechanisms.amplify_alignment": "library",
    "mechanisms.clip_frobenius": "library",
    "mechanisms.gaussian_mech": "paper",  # the Gaussian baseline the projections are compared with
    "mechanisms.noisy_mech": "paper",  # M1 and M2 themselves, NoiseBlock's block of one
    "mechanisms.project": "paper",  # the noise-free map M V itself
    "profiler.PrivacyProfile": "library",
    "profiler.PrivacyProfile.eps_at_delta": "library",
    "profiler.delta_support": "library",
    "profiler.log_density_mv": "paper",  # the density behind the loss (criterion 4)
    "profiler.mc_privacy_profile": "library",
    "profiler.privacy_loss_array": "paper",  # the loss at (A, B) (criterion 4)
    "profiler.ratio_from_point": "paper",  # (A, B) of a concrete output (criterion 4)
    "profiler.sample_ratio_arrays": "paper",  # the (A, B) representation (criterion 3)
    "randmat.OrthogonalSplit": "paper",
    "randmat.Seed": "library",
    "randmat.Seed.child": "library",
    "randmat.Seed.generator": "library",
    "randmat.Seed.reset": "library",
    "randmat.WishartDraw": "library",
    "randmat.WishartDraw.nonzero_eigenvalues": "library",
    "randmat.capture_fraction": "paper",  # the captured share alpha of the small-rank bound
    "randmat.col_projector": "paper",
    "randmat.orthogonal_split": "paper",  # the split of the large-rank bound
    "randmat.wishart_draw": "library",
    "randmat.wishart_factor": "library",
    "specialfn.chi2_cdf": "library",
    "specialfn.chi2_quantile": "library",
    "specialfn.log_gamma": "library",
    "specialfn.normal_cdf": "library",
    "specialfn.normal_quantile": "oracle",
    "specialfn.reg_inc_beta": "library",
    "specialfn.reg_inc_betac": "library",
    "specialfn.student_t_cdf": "library",
    "specialfn.student_t_quantile": "library",
    "trainer.DpTrainConfig": "library",
    "trainer.Mechanism": "library",
    "trainer.TaskKind": "library",
    "trainer.TrainTask": "library",
    "trainer.TrainTask.add_example": "library",
    "trainer.TrainTask.example_loss": "library",
    "trainer.TrainTask.grad_W": "library",
    "trainer.TrainTask.loss": "library",
    "trainer.TrainTask.n_examples": "library",
    "trainer.TrainTask.n_out": "library",
    "trainer.TrainTask.output_grad": "library",
    "trainer.TrainTask.per_example_grad_W": "oracle",  # for the ghost-norm clipping kernel
    "trainer.TrainTask.ridge_optimum": "oracle",  # the fixed point the training tests reach
    "trainer.budget_spent": "library",
    "trainer.dp_lora_fa": "library",
    "trainer.fit": "library",
    "trainer.load_config": "library",
    "trainer.make_logistic_task": "library",
    "trainer.make_ridge_task": "library",
    "trainer.noisy_proj": "library",
    "trainer.rp_gd": "library",
    "trainer.train": "library",
}


def _public_surface() -> set[str]:
    """module.name for each public function or class a module defines, and
    module.Class.name for each public method or property of such a class."""
    found = set()
    for info in pkgutil.iter_modules(wishart_dp.__path__):
        module = importlib.import_module(f"wishart_dp.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from elsewhere
            found.add(f"{info.name}.{name}")
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, property)
                    ):
                        found.add(f"{info.name}.{name}.{attr}")
    return found


def test_public_surface_matches_the_registry():
    found = _public_surface()
    assert sorted(found - SURFACE.keys()) == [], "public names without a role in SURFACE"
    assert sorted(SURFACE.keys() - found) == [], "SURFACE names that no module defines"


def test_every_registered_name_has_a_known_role():
    assert {name: role for name, role in SURFACE.items() if role not in ROLES} == {}
