"""The package's public names: each resolves, on first use, to its submodule's object."""

import importlib
import os
import subprocess
import sys

import pytest

import vacuitylab

PUBLIC = {
    "AuditReport", "CardinalityMismatchError", "DetectionResult", "EvidenceRecord", "ExpansionMode",
    "ExpansionRun", "ExpansionSpec", "Group", "INVARIANCE_EVIDENCE", "LossBreakdown", "MIXED", "Metric",
    "Orientation", "PopulationParams", "RbfFeaturizer", "RecordBatch", "RecordParseError", "RestrictionResult",
    "ScoredSample", "ToyBatch", "ToyModelGrads", "ToyModelParams", "ToyTrainConfig", "ToyTrainResult",
    "TrainingDiverged", "TrainingMode", "Verdict", "append_classes", "audit_cardinality", "aupr",
    "aupr_baseline", "aupr_scores", "auroc", "auroc_scores", "digamma", "evaluate_detection", "evaluate_groups",
    "evaluate_scores",
    "far_probe_points", "gamma_family", "generate_evidence_population", "generate_toy_classification",
    "init_params", "log_gamma", "loss_gradient", "overlap_population_params",
    "parse_records", "predict_alpha", "remove_class", "run_expansion_experiment", "run_restriction_experiment",
    "score_group", "score_record", "serialize_records", "softplus_evidence", "stream_rng", "total_loss",
    "train_toy",
}
SUBMODULES = ("dirichlet", "experiments", "losses", "metrics", "records", "special", "synthetic", "toy")


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 58
    assert sorted(vacuitylab.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_name_is_its_submodules_object(name):
    """Each name is bound in a library submodule, and every submodule binding it binds the package's object."""
    modules = [importlib.import_module(f"vacuitylab.{m}") for m in SUBMODULES]
    bound = [vars(module)[name] for module in modules if name in vars(module)]
    assert bound and all(value is getattr(vacuitylab, name) for value in bound)


def test_dir_lists_every_public_name():
    assert PUBLIC <= set(dir(vacuitylab))
    assert "__version__" in dir(vacuitylab)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from vacuitylab import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(vacuitylab, name) for name in PUBLIC}


def test_unknown_name_is_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vacuitylab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from vacuitylab import no_such_name", {})


def test_bare_import_loads_no_submodule():
    code = "import sys, vacuitylab; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "vacuitylab" in loaded
    assert [m for m in loaded if m.startswith("vacuitylab.")] == []
