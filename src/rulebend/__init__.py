"""Deterministic governor for a medication-reminding care robot.

The package decides, step by step, whether the robot should keep
reminding, log a refusal, or escalate to a caregiver — weighing rule
compliance, resident autonomy, wellbeing risk, and precedent cases.
"""

from .casekb import Case, CaseBase, CaseOpinion, TraceEntry, feature_vector
from .evaluator import (
    Branch,
    EvaluationResult,
    evaluate,
    render_explanation,
    situation_risk,
)
from .governor import (
    Assessment,
    Recommendation,
    assess,
    candidate_behaviours,
    decide,
    judge,
)
from .model import (
    Behaviour,
    BehaviourKind,
    Blackboard,
    BlackboardEntry,
    CharacterProfile,
    DecisionContext,
    GammaSpec,
    Instruction,
    ReminderState,
    RuleVerdict,
)
from .rules import RULES, evaluate_rules
from .sim import (
    EpisodeLog,
    Resident,
    ResidentConfig,
    RobotState,
    Scenario,
    SignatureRegistry,
    Terminal,
    behaviour_id,
    run_episode,
)
from .utility import (
    autonomy_utility,
    behaviour_risk,
    risk_threshold,
    situation_spec,
    thresholds,
    wellbeing_utility,
)

__version__ = "0.1.0"

__all__ = [
    "Assessment",
    "Behaviour",
    "BehaviourKind",
    "Blackboard",
    "BlackboardEntry",
    "Branch",
    "Case",
    "CaseBase",
    "CaseOpinion",
    "CharacterProfile",
    "DecisionContext",
    "EpisodeLog",
    "EvaluationResult",
    "GammaSpec",
    "Instruction",
    "Recommendation",
    "ReminderState",
    "Resident",
    "ResidentConfig",
    "RobotState",
    "RuleVerdict",
    "RULES",
    "Scenario",
    "SignatureRegistry",
    "Terminal",
    "TraceEntry",
    "assess",
    "autonomy_utility",
    "behaviour_id",
    "behaviour_risk",
    "candidate_behaviours",
    "decide",
    "evaluate",
    "evaluate_rules",
    "feature_vector",
    "judge",
    "render_explanation",
    "risk_threshold",
    "run_episode",
    "situation_risk",
    "situation_spec",
    "thresholds",
    "wellbeing_utility",
]
