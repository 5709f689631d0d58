"""Teleological inference on binary causal models.

Build a causal graph with explicit conditional probability tables, tag one
variable as an agent's action, and the toolkit will classify the action's
effects, plan interference experiments that discriminate between candidate
intentions, run them on simulated or observational data, and identify which
effects the agent was acting for.
"""

from .agent import (
    DEFAULT_P_ACT,
    DEFAULT_P_BASE,
    DEFAULT_THETA,
    AgentPolicy,
    Servability,
    TeleologicalModel,
    bind_agent,
    servable,
)
from .effects import (
    EffectClassification,
    classify_effects,
    confounding_causes,
    justifying_paths,
)
from .engine import (
    ENUMERATION_CAP,
    NATURAL_LABEL,
    Dataset,
    JointTable,
    Regime,
    joint_enumerate,
    marginals,
    mutilate,
    query,
    require_possible,
    sample,
    sample_observational,
)
from .errors import (
    DataError,
    EnumerationLimitError,
    HypothesisError,
    InvalidGraphError,
    PolicyError,
    RegimeError,
    SpecError,
    TeleoError,
    UnknownVariableError,
    ZeroProbabilityError,
)
from .graph import CausalGraph, Tagging, Variable
from .inference import (
    ArmCounts,
    HypothesisScore,
    Identification,
    OracleOutcome,
    arms_from_dataset,
    arms_from_results,
    enumerate_hypotheses,
    hypothesis_label,
    identify,
    oracle_identify,
    predicted_rates,
    score_arms,
    sensitivity,
)
from .lab import (
    Battery,
    ExperimentResult,
    InterferenceExperiment,
    base_rate_violation_budget,
    plan,
    run_battery,
    run_randomized,
    two_proportion_test,
)
from .observational import (
    ObservationalResult,
    StratifiedComparison,
    StratumResult,
    observational_battery,
    stratified_action_comparison,
)
from .report import Report, emit_report, parse_machine_report
from .specfmt import (
    GraphSpecDocument,
    parse_graph_spec,
    serialize_graph_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPolicy",
    "ArmCounts",
    "Battery",
    "CausalGraph",
    "Dataset",
    "DataError",
    "DEFAULT_P_ACT",
    "DEFAULT_P_BASE",
    "DEFAULT_THETA",
    "EffectClassification",
    "ENUMERATION_CAP",
    "EnumerationLimitError",
    "ExperimentResult",
    "GraphSpecDocument",
    "HypothesisError",
    "HypothesisScore",
    "Identification",
    "InterferenceExperiment",
    "InvalidGraphError",
    "JointTable",
    "NATURAL_LABEL",
    "ObservationalResult",
    "OracleOutcome",
    "PolicyError",
    "Regime",
    "RegimeError",
    "Report",
    "Servability",
    "SpecError",
    "StratifiedComparison",
    "StratumResult",
    "Tagging",
    "TeleoError",
    "TeleologicalModel",
    "UnknownVariableError",
    "Variable",
    "ZeroProbabilityError",
    "arms_from_dataset",
    "arms_from_results",
    "base_rate_violation_budget",
    "bind_agent",
    "classify_effects",
    "confounding_causes",
    "emit_report",
    "enumerate_hypotheses",
    "hypothesis_label",
    "identify",
    "joint_enumerate",
    "justifying_paths",
    "marginals",
    "mutilate",
    "observational_battery",
    "oracle_identify",
    "parse_graph_spec",
    "parse_machine_report",
    "plan",
    "predicted_rates",
    "query",
    "require_possible",
    "run_battery",
    "run_randomized",
    "sample",
    "sample_observational",
    "score_arms",
    "sensitivity",
    "serialize_graph_spec",
    "servable",
    "stratified_action_comparison",
    "two_proportion_test",
]
