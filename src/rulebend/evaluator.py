"""Desirability evaluation: when may the robot bend or suppress a rule?

Every candidate behaviour arrives here with four inputs already on the
blackboard: its rule verdict, its two utilities, and the case-base
opinion.  Crossing verdict with opinion gives four branches:

    permissible + acceptable     -> desirable as-is
    impermissible + unacceptable -> rejected as-is
    impermissible + acceptable   -> a *bend*: precedent says act against
                                    the rules; the character decides
    permissible + unacceptable   -> a *suppress*: precedent says refuse
                                    a legal action; the character decides

The two contested branches run value gates and then a risk gate.  In a
bend, a value the precedent stance serves must gain at least the gain
floor (10-C)/10 and every other value must stay above the loss floor
(C-10)/10.  In a suppress, only the values the stance serves are
checked, against the loss floor.  Finally the situation's risk must not
exceed the character's risk ceiling.

The wellbeing gate reads the behaviour's wellbeing utility; the
autonomy gate reads its autonomy utility.  Gates run in the fixed value
order (wellbeing, then autonomy) and the first failure decides the
explanation.

The situation's risk depends on the decision context alone, so
``situation_risk`` reads it once per decision and ``evaluate`` takes
that reading for every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, NamedTuple, Optional, Sequence, Tuple

from .casekb import CaseOpinion
from .model import (
    AUTONOMY,
    RISK_AXIS,
    VALUE_TAGS,
    WELLBEING,
    Behaviour,
    CharacterProfile,
    DecisionContext,
    GammaSpec,
    RuleVerdict,
)
from .utility import behaviour_risk, risk_threshold, situation_spec, value_thresholds


class Branch(str, Enum):
    COMPLIANT_SUPPORTED = "compliant_supported"
    NONCOMPLIANT_UNSUPPORTED = "noncompliant_unsupported"
    BEND_EVALUATED = "bend_evaluated"
    SUPPRESS_EVALUATED = "suppress_evaluated"


# ======================================================================
# Explanation templates
# ======================================================================
# Templates 1-6 are the canonical explanation wordings for contested
# (bend/suppress) outcomes; 7-9 cover the uncontested branches and the
# suppress that survives every gate.  Placeholders in angle brackets are
# substituted by render_explanation.  The wording, down to punctuation,
# is part of the external contract: tests compare byte-for-byte.

TEMPLATE_BEND_ACCEPTED = 1
TEMPLATE_SUPPRESS_RISK = 2
TEMPLATE_SUPPRESS_WELLBEING = 3
TEMPLATE_BEND_RISK = 4
TEMPLATE_BEND_VALUE = 5
TEMPLATE_SUPPRESS_AUTONOMY = 6
TEMPLATE_COMPLIANT_SUPPORTED = 7
TEMPLATE_NONCOMPLIANT_UNSUPPORTED = 8
TEMPLATE_SUPPRESS_OVERRIDDEN = 9

TEMPLATES = {
    TEMPLATE_BEND_ACCEPTED: (
        "The action breaks the rules <rule_ids>. However, this action in "
        "this context is considered desirable by experts. Since it "
        "increases <intentions> values greatly, while not reducing the "
        "other values <other_values> by a considerable amount, and the "
        "outcome is within accepted risk levels, deemed accepted by the "
        "PSRB system."
    ),
    TEMPLATE_SUPPRESS_RISK: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since the "
        "action outcomes introduce a high risk, deemed not accepted by "
        "the PSRB system."
    ),
    TEMPLATE_SUPPRESS_WELLBEING: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since it "
        "decreases <intentions> values by a considerable amount, the "
        "action is deemed unacceptable by the system"
    ),
    TEMPLATE_BEND_RISK: (
        "The action breaks the rules <rule_ids>. However, this action in "
        "this context is considered desirable by experts. Although the "
        "value tradeoff is satisfactory, the risk taken by the action is "
        "not acceptable to bend the rule."
    ),
    TEMPLATE_BEND_VALUE: (
        "The action breaks the rules <rule_ids>. However, this action in "
        "this context is considered desirable by experts. But, the PSRB "
        "system suggests that the value tradeoff is not satisfactory to "
        "bend the rule."
    ),
    TEMPLATE_SUPPRESS_AUTONOMY: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. But, the PSRB "
        "system suggests that the value tradeoff is not satisfactory to "
        "bend the rule."
    ),
    TEMPLATE_COMPLIANT_SUPPORTED: (
        "The action does not break any rules and is considered desirable "
        "by experts, deemed accepted by the PSRB system."
    ),
    TEMPLATE_NONCOMPLIANT_UNSUPPORTED: (
        "The action breaks the rules <rule_ids> and is considered "
        "undesirable by experts, deemed not accepted by the PSRB system."
    ),
    TEMPLATE_SUPPRESS_OVERRIDDEN: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since the "
        "value tradeoff and the risk stay within the limits the agent's "
        "character accepts, deemed accepted by the PSRB system."
    ),
}


def _join_ids(rule_ids: Sequence[int]) -> str:
    return ", ".join(str(rule_id) for rule_id in rule_ids) if rule_ids else "none"


def _join_tags(tags: FrozenSet[str]) -> str:
    return ", ".join(sorted(tags)) if tags else "none"


def render_explanation(
    template_id: int,
    rule_ids: Sequence[int] = (),
    intentions: FrozenSet[str] = frozenset(),
) -> str:
    """Fill one canonical template.

    <rule_ids>      comma-joined broken rule numbers
    <intentions>    comma-joined sorted value tags of the opinion
    <other_values>  the complementary value tags
    Empty substitutions render as "none".
    """
    if template_id not in TEMPLATES:
        raise ValueError(f"unknown explanation template {template_id!r}")
    others = frozenset(VALUE_TAGS) - intentions
    text = TEMPLATES[template_id]
    text = text.replace("<rule_ids>", _join_ids(rule_ids))
    text = text.replace("<intentions>", _join_tags(intentions))
    text = text.replace("<other_values>", _join_tags(others))
    return text


class SituationRisk(NamedTuple):
    """The situation's risk under one risk mode, and the density it came from."""

    risk: float
    risk_mode: str
    spec: GammaSpec


def situation_risk(ctx: DecisionContext, risk_mode: str = "literal") -> SituationRisk:
    """Read the risk off the situation's density, once per decision."""
    spec = situation_spec(ctx)
    return SituationRisk(behaviour_risk(spec, mode=risk_mode), risk_mode, spec)


@dataclass(frozen=True)
class EvaluationResult:
    """Verdict of the desirability evaluation for one behaviour."""

    desirability: int                 # 1 desirable, 0 not
    branch: Branch
    risk: float                       # situation risk under the mode used
    risk_mode: str
    risk_spec: GammaSpec
    template_id: int
    explanation: str
    failed_value: Optional[str] = None   # value gate that decided a 0


# ======================================================================
# Gates
# ======================================================================
# A contested candidate meets the character only through its gates.
# Each gate reads one trait and holds one quantity, a utility or the
# situation's risk, to a floor of that trait; ``evaluate`` walks them in
# order and ``rulebend.atlas`` reads them to find where each answer
# changes along its trait axis.

GAIN_FLOOR = "gain"          # utility >= (10 - C)/10
LOSS_FLOOR = "loss"          # utility >= (C - 10)/10
RISK_CEILING = "risk"        # risk <= (exp(C/4.17) - 1)/10


class Gate(NamedTuple):
    """One character gate: (a ``TRAIT_AXES`` name, utility or risk, floor kind)."""

    axis: str
    quantity: float
    floor: str


def gate_floor(floor: str, trait: float) -> float:
    """The threshold a gate of kind ``floor`` sets at trait value ``trait``."""
    if floor == RISK_CEILING:
        return risk_threshold(trait)
    gain_floor, loss_floor = value_thresholds(trait)
    return gain_floor if floor == GAIN_FLOOR else loss_floor


def clears(gate: Gate, threshold: float) -> bool:
    """Whether ``gate`` passes at a floor of ``threshold``.

    Only a strict comparison fails, so a tie passes.
    """
    if gate.floor == RISK_CEILING:
        return not gate.quantity > threshold
    return not gate.quantity < threshold


def contested_gates(
    situation: SituationRisk,
    verdict: RuleVerdict,
    opinion: CaseOpinion,
    autonomy_utility: float,
    wellbeing_utility: float,
) -> Tuple[Gate, ...]:
    """A candidate's gates in evaluation order; () when it is uncontested.

    In a bend, values the precedent stance serves must clear the gain
    floor and every other value must stay above the loss floor.  In a
    suppress, only the values the stance serves are checked, against
    the loss floor.  The risk gate comes last in both.
    """
    if verdict.permissible == opinion.acceptable:
        return ()
    utilities = {WELLBEING: wellbeing_utility, AUTONOMY: autonomy_utility}
    intentions = opinion.intentions
    if verdict.permissible:
        values = tuple(
            Gate(tag, utilities[tag], LOSS_FLOOR)
            for tag in VALUE_TAGS
            if tag in intentions
        )
    else:
        values = tuple(
            Gate(tag, utilities[tag], GAIN_FLOOR if tag in intentions else LOSS_FLOOR)
            for tag in VALUE_TAGS
        )
    return values + (Gate(RISK_AXIS, situation.risk, RISK_CEILING),)


# ======================================================================
# Evaluation
# ======================================================================


def evaluate(
    behaviour: Behaviour,
    situation: SituationRisk,
    profile: CharacterProfile,
    verdict: RuleVerdict,
    opinion: CaseOpinion,
    autonomy_utility: float,
    wellbeing_utility: float,
) -> EvaluationResult:
    """Decide desirability of one candidate behaviour.

    Total over all inputs: always returns a result with desirability in
    {0, 1}, an assigned branch, and a rendered explanation.  The
    decision's ``situation_risk`` is recorded on every branch (it is
    logged), but only the contested branches gate on it.
    """
    risk = situation.risk
    rule_ids = verdict.violated_rule_ids
    intentions = opinion.intentions

    def result(
        desirability: int,
        branch: Branch,
        template_id: int,
        failed_value: Optional[str] = None,
    ) -> EvaluationResult:
        return EvaluationResult(
            desirability=desirability,
            branch=branch,
            risk=risk,
            risk_mode=situation.risk_mode,
            risk_spec=situation.spec,
            template_id=template_id,
            explanation=render_explanation(template_id, rule_ids, intentions),
            failed_value=failed_value,
        )

    broken = not verdict.permissible
    gates = contested_gates(
        situation, verdict, opinion, autonomy_utility, wellbeing_utility
    )
    if not gates:
        if broken:
            return result(
                0, Branch.NONCOMPLIANT_UNSUPPORTED, TEMPLATE_NONCOMPLIANT_UNSUPPORTED
            )
        return result(1, Branch.COMPLIANT_SUPPORTED, TEMPLATE_COMPLIANT_SUPPORTED)

    branch = Branch.BEND_EVALUATED if broken else Branch.SUPPRESS_EVALUATED
    for gate in gates:
        if clears(gate, gate_floor(gate.floor, getattr(profile, gate.axis))):
            continue
        if gate.floor == RISK_CEILING:
            template = TEMPLATE_BEND_RISK if broken else TEMPLATE_SUPPRESS_RISK
            return result(0, branch, template)
        if broken:
            template = TEMPLATE_BEND_VALUE
        elif gate.axis == WELLBEING:
            template = TEMPLATE_SUPPRESS_WELLBEING
        else:
            template = TEMPLATE_SUPPRESS_AUTONOMY
        return result(0, branch, template, gate.axis)
    # a bend precedent supports, or a suppress the character overrides
    template = TEMPLATE_BEND_ACCEPTED if broken else TEMPLATE_SUPPRESS_OVERRIDDEN
    return result(1, branch, template)
