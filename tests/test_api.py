import inspect
import types

import errata

PUBLIC = {
    "DEFAULT_DISTRIBUTION",
    # logs
    "InputError", "LogFormatError", "PredictionLog", "PredictionRecord",
    "load_log", "load_log_file", "serialize_log",
    # estimators
    "ConditionBody", "InvarianceProfile", "InvarianceRow", "MetricBundle",
    "Probability", "Verdict", "f1_value", "invariance_profile",
    "is_error_detecting", "joint_counts", "metric_bundle",
    # learning
    "GuardCheck", "LearnConfig", "LearnReport", "LearnStep", "Objective",
    "PairGuard", "exhaustive_oracle", "learn_correction", "learn_detection",
    # rules
    "ApplicationTrace", "CorrectionRule", "DeltaRow", "DetectionRule",
    "LogMismatchError", "RecordTrace", "RuleSet", "UnknownConditionError",
    "apply_rules", "dumps_rules", "evaluate_delta", "loads_rules",
    # synth
    "DistributionSpec", "PlantedCondition", "SynthBookkeeping", "SynthConfig",
    "SynthConfigError", "generate", "random_log",
    # theorems
    "SweepResult", "TheoremId", "TheoremReport", "TheoremVerdict",
    "check_claim1", "check_edns", "check_precision_change",
    "check_recall_reduction", "check_reclassification_limit",
    "check_residual", "check_support_bound", "sweep",
}

REMOVED = {
    "apply_detection", "apply_correction", "TraceMismatchError",
    "EventQuery", "Atom", "cond_prob", "class_body_counts",
    "predicted_has", "predicted_lacks", "truth_has", "truth_lacks",
    "condition_holds", "condition_absent", "distribution_is",
}


def test_public_surface_is_pinned():
    names = {
        name for name, value in vars(errata).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


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
