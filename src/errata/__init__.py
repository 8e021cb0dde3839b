"""Error detecting and correcting rules over classifier prediction logs.

The package ingests per-sample prediction logs, estimates every relevant
conditional probability as an exact rational, learns detection rules
(erase a suspect prediction) and correction rules (relabel records that
lost a label) under explicit precision/recall guards, applies them with
full traces, and machine-checks the probabilistic identities and bounds
that govern the whole approach on any finite log.
"""

from .estimators import (
    ConditionBody,
    InvarianceProfile,
    InvarianceRow,
    MetricBundle,
    Probability,
    Verdict,
    cond_prob,
    f1_value,
    invariance_profile,
    is_error_detecting,
    joint_counts,
    metric_bundle,
)
from .learning import (
    GuardCheck,
    LearnConfig,
    LearnReport,
    LearnStep,
    Objective,
    PairGuard,
    exhaustive_oracle,
    learn_correction,
    learn_detection,
)
from .logs import (
    DEFAULT_DISTRIBUTION,
    Atom,
    EventQuery,
    LogFormatError,
    PredictionLog,
    PredictionRecord,
    condition_absent,
    condition_holds,
    distribution_is,
    load_log,
    load_log_file,
    predicted_has,
    predicted_lacks,
    serialize_log,
    truth_has,
    truth_lacks,
)
from .rules import (
    ApplicationTrace,
    CorrectionRule,
    DeltaRow,
    DetectionRule,
    LogMismatchError,
    RecordTrace,
    RuleSet,
    TraceMismatchError,
    UnknownConditionError,
    apply_correction,
    apply_detection,
    apply_rules,
    dumps_rules,
    evaluate_delta,
    loads_rules,
)
from .synth import (
    DistributionSpec,
    PlantedCondition,
    SynthBookkeeping,
    SynthConfig,
    SynthConfigError,
    generate,
    random_log,
)
from .theorems import (
    SweepResult,
    TheoremId,
    TheoremReport,
    TheoremVerdict,
    check_claim1,
    check_edns,
    check_precision_change,
    check_recall_reduction,
    check_reclassification_limit,
    check_residual,
    check_support_bound,
    sweep,
)

__version__ = "0.1.0"
