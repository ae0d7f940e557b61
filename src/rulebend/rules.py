"""Pre-programmed conduct rules for the medication-reminder robot.

The robot ships with two hard rules:

    1. Honour a resident instruction while it is pending.  Between the
       resident issuing SNOOZE or ACKNOWLEDGE and the robot's next
       action, the only permissible action is the one that carries the
       instruction out.

    2. Do not close the cycle by silently logging a missed dose after
       an empty acknowledgement.  Once the resident acknowledged but
       the inspection found no medication taken, writing a record is a
       rule violation; escalating to the care-worker is not.

Rule checks are pure: they look only at the candidate behaviour and the
decision context, and report which rule numbers the behaviour would
break.  Bending (deliberately acting against a verdict) is decided one
layer up, by the evaluator — this module never returns anything but the
letter of the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from .model import Behaviour, BehaviourKind, DecisionContext, RuleVerdict


@dataclass(frozen=True)
class Rule:
    rule_id: int
    summary: str
    violated_by: Callable[[Behaviour, DecisionContext], bool]


def _violates_instruction_rule(behaviour: Behaviour, ctx: DecisionContext) -> bool:
    # Only a pending instruction binds.  An instruction already answered
    # (for example the acknowledgement that led into an inspection) no
    # longer constrains later escalation decisions.
    if not ctx.instruction_pending:
        return False
    return behaviour.obeys is not ctx.last_instruction


def _violates_silent_log_rule(behaviour: Behaviour, ctx: DecisionContext) -> bool:
    return (
        ctx.acknowledged_without_taking
        and behaviour.kind is BehaviourKind.RECORD
    )


RULES: Tuple[Rule, ...] = (
    Rule(1, "honour the pending resident instruction", _violates_instruction_rule),
    Rule(2, "no silent record after an empty acknowledgement", _violates_silent_log_rule),
)


def evaluate_rules(behaviour: Behaviour, ctx: DecisionContext) -> RuleVerdict:
    """Check one candidate behaviour against every rule.

    Returns a RuleVerdict whose violated ids are ascending; the verdict
    is permissible exactly when that tuple is empty.
    """
    violated = tuple(
        rule.rule_id for rule in RULES if rule.violated_by(behaviour, ctx)
    )
    return RuleVerdict(permissible=not violated, violated_rule_ids=violated)
