import importlib
import inspect
import types

import errata

PUBLIC_BY_MODULE = {
    "logs": {
        "DEFAULT_DISTRIBUTION",
        "InputError", "LogFormatError", "PredictionLog", "PredictionRecord",
        "load_log", "load_log_file", "serialize_log",
    },
    "bundles": {"MetricBundle"},
    "estimators": {
        "ConditionBody", "InvarianceProfile", "InvarianceRow",
        "Probability", "Verdict", "f1_value", "invariance_profile",
        "is_error_detecting", "joint_counts", "metric_bundle",
    },
    "learning": {
        "GuardCheck", "LearnConfig", "LearnReport", "LearnStep", "Objective",
        "PairGuard", "exhaustive_oracle", "learn_correction", "learn_detection",
    },
    "rules": {
        "ApplicationTrace", "CorrectionRule", "DeltaRow", "DetectionRule",
        "LogMismatchError", "RecordTrace", "RuleSet", "UnknownConditionError",
        "apply_rules", "dumps_rules", "evaluate_delta", "loads_rules",
    },
    "synth": {
        "DistributionSpec", "PlantedCondition", "SynthBookkeeping", "SynthConfig",
        "SynthConfigError", "generate", "random_log",
    },
    "theorems": {
        "SweepResult", "TheoremId", "TheoremReport", "TheoremVerdict",
        "check_claim1", "check_edns", "check_precision_change",
        "check_recall_reduction", "check_reclassification_limit",
        "check_residual", "check_support_bound", "sweep",
    },
}
PUBLIC = set().union(*PUBLIC_BY_MODULE.values())

REMOVED = {
    "apply_detection", "apply_correction", "TraceMismatchError",
    "EventQuery", "Atom", "cond_prob", "class_body_counts",
    "predicted_has", "predicted_lacks", "truth_has", "truth_lacks",
    "condition_holds", "condition_absent", "distribution_is",
}


def test_public_surface_is_pinned():
    # The package loads its names lazily, so they are read from __all__
    # and dir(), and each must resolve to its submodule's object.
    assert set(errata.__all__) == PUBLIC
    names = {
        name for name in dir(errata)
        if not name.startswith("_") and not isinstance(getattr(errata, name), types.ModuleType)
    }
    assert names == PUBLIC
    for module, module_names in PUBLIC_BY_MODULE.items():
        submodule = importlib.import_module(f"errata.{module}")
        for name in module_names:
            assert getattr(errata, name) is getattr(submodule, name), name


def test_removed_names_are_gone_from_every_module():
    modules = [errata] + [
        value for value in vars(errata).values() if isinstance(value, types.ModuleType)
    ]
    for module in modules:
        assert REMOVED.isdisjoint(vars(module)), module.__name__
    assert not hasattr(errata.PredictionLog, "count")
    assert not hasattr(errata.ConditionBody, "query")


def test_apply_rules_takes_a_log_and_rules_only():
    assert list(inspect.signature(errata.apply_rules).parameters) == ["log", "rules"]


def test_input_errors_share_one_base():
    for error in (errata.LogFormatError, errata.SynthConfigError,
                  errata.UnknownConditionError, errata.LogMismatchError):
        assert issubclass(error, errata.InputError)
    assert issubclass(errata.InputError, ValueError)
