"""Error detecting and correcting rules over classifier prediction logs.

The package ingests per-sample prediction logs, estimates every relevant
conditional probability as an exact rational, learns detection rules
(erase a suspect prediction) and correction rules (relabel records that
lost a label) under explicit precision/recall guards, applies them with
full traces, and machine-checks the probabilistic identities and bounds
that govern the whole approach on any finite log.

The public names below are loaded from their submodule on first access
(PEP 562), so ``import errata`` and each CLI command load only the
modules they use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "bundles": "MetricBundle",
    "estimators": "ConditionBody InvarianceProfile InvarianceRow Probability"
    " Verdict f1_value invariance_profile joint_counts metric_bundle",
    "learning": "GuardCheck LearnConfig LearnReport LearnStep Objective PairGuard"
    " exhaustive_oracle learn_correction learn_detection",
    "logs": "DEFAULT_DISTRIBUTION InputError LogFormatError PredictionLog PredictionRecord"
    " load_log load_log_file serialize_log",
    "rules": "ApplicationTrace CorrectionRule DeltaRow DetectionRule LogMismatchError"
    " RecordTrace RuleSet UnknownConditionError apply_rules dumps_rules evaluate_delta"
    " loads_rules",
    "synth": "DistributionSpec PlantedCondition SynthBookkeeping SynthConfig SynthConfigError"
    " generate random_log",
    "theorems": "SweepResult TheoremId TheoremReport TheoremVerdict check check_precision_change"
    " check_recall_reduction check_support_bound sweep",
}
_SUBMODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
