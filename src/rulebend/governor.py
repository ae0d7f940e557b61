"""Decision orchestration: candidates in, recommended behaviour out.

For one decision point the governor enumerates the context-legal
candidate behaviours, runs each through rule check, utilities, case
lookup, and desirability evaluation, posts everything to a blackboard,
and emits a recommendation.

A decision has two halves.  ``assess`` does the profile-free work: the
candidates, their rule verdicts, utilities and case-base opinions, and
the situation's risk all depend on the decision context, the case base
and the risk mode alone.  ``judge`` does the rest for one character:
the desirability evaluation, the blackboard and the fallback.
``decide`` runs both.  A command that decides the
same contexts under many characters (``calibrate``, ``matrix``) owns an
assessment table, a plain dict it passes to ``decide``, so each context
is assessed once per command; a table belongs to one case base and one
command and is never shared beyond it.

While a resident instruction is pending, the behaviour that carries it
out is the only candidate.  Among several desirable behaviours
``Recommendation.chosen`` escalates first (report over record over
follow-up over reminders).  If nothing is desirable, the rule-compliant
candidate with the best combined utility is recommended alone and
flagged as a fallback, so the robot always has an action and the log
shows the governor was overridden by necessity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from .casekb import CaseBase, CaseOpinion
from .evaluator import SituationRisk, evaluate, situation_risk
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
from .rules import evaluate_rules
from .utility import autonomy_utility, wellbeing_utility

#: How many follow-ups exhaust patience and expand the candidate set.
EXPANSION_FOLLOW_UPS = 3

#: Fixed arbitration priority among desirable behaviours: escalate
#: before settling before re-prompting.
ARBITRATION_PRIORITY: Tuple[BehaviourKind, ...] = (
    BehaviourKind.REPORT,
    BehaviourKind.RECORD,
    BehaviourKind.FOLLOW_UP,
    BehaviourKind.SNOOZE,
    BehaviourKind.REMIND,
    BehaviourKind.ACK_WAIT,
)


class GovernorError(Exception):
    """Raised when a decision cannot produce any recommendation."""


_OBEY_BEHAVIOURS = {
    Instruction.SNOOZE: Behaviour(BehaviourKind.SNOOZE, obeys=Instruction.SNOOZE),
    Instruction.ACKNOWLEDGE: Behaviour(
        BehaviourKind.ACK_WAIT, obeys=Instruction.ACKNOWLEDGE
    ),
}

_ESCALATION_SET = (
    Behaviour(BehaviourKind.FOLLOW_UP),
    Behaviour(BehaviourKind.RECORD),
    Behaviour(BehaviourKind.REPORT),
)


def candidate_behaviours(ctx: DecisionContext) -> Tuple[Behaviour, ...]:
    """Context-legal candidate actions, in ``SIMULATED_KINDS`` order.

    - inside a granted snooze window: continue the snooze;
    - a pending instruction: the single behaviour that carries it out;
    - an acknowledgement that produced no medication, or patience
      exhausted after three follow-ups: follow up, record, or report;
    - a snoozed reminder whose window has run out: follow up;
    - otherwise: issue the due reminder.
    """
    if ctx.snooze_remaining > 0:
        return (Behaviour(BehaviourKind.SNOOZE),)
    if ctx.instruction_pending:
        return (_OBEY_BEHAVIOURS[ctx.last_instruction],)
    if ctx.acknowledged_without_taking or ctx.follow_ups >= EXPANSION_FOLLOW_UPS:
        return _ESCALATION_SET
    if ctx.reminder_state is ReminderState.SNOOZED:
        return (Behaviour(BehaviourKind.FOLLOW_UP),)
    return (Behaviour(BehaviourKind.REMIND),)


@dataclass(frozen=True)
class Recommendation:
    """What the governor tells the robot about one decision."""

    desirable: Tuple[Behaviour, ...]      # canonical order, possibly empty
    fallback: Optional[Behaviour]         # set exactly when desirable is empty
    blackboard: Blackboard

    def is_fallback(self) -> bool:
        return self.fallback is not None

    @property
    def chosen(self) -> Behaviour:
        """The single behaviour the robot executes: the fallback, or else
        the desirable behaviour that comes first in ARBITRATION_PRIORITY."""
        if self.fallback is not None:
            return self.fallback
        if not self.desirable:
            raise GovernorError("empty recommendation cannot be arbitrated")
        return min(self.desirable, key=lambda b: ARBITRATION_PRIORITY.index(b.kind))


#: One assessed candidate: (behaviour, rule verdict, autonomy utility,
#: wellbeing utility, wellbeing density, case-base opinion).
Candidate = Tuple[Behaviour, RuleVerdict, float, float, GammaSpec, CaseOpinion]


class Assessment(NamedTuple):
    """The profile-free half of one decision."""

    situation: SituationRisk
    candidates: Tuple[Candidate, ...]   # in candidate_behaviours order


#: An assessment table: one command's assessments under one case base,
#: keyed by (context, risk mode).
AssessmentTable = Dict[Tuple[DecisionContext, str], Assessment]


def assess(
    ctx: DecisionContext,
    kb: CaseBase,
    risk_mode: str = "literal",
) -> Assessment:
    """Everything about a decision that no character trait changes.

    Reads the context, the case base and the risk mode only, never a
    profile, so one assessment serves every character deciding ``ctx``.
    """
    candidates = []
    for behaviour in candidate_behaviours(ctx):
        verdict = evaluate_rules(behaviour, ctx)
        au = autonomy_utility(behaviour, ctx)
        w, spec = wellbeing_utility(behaviour, ctx)
        opinion = kb.consult(behaviour, ctx, au, w, verdict)
        candidates.append((behaviour, verdict, au, w, spec, opinion))
    return Assessment(situation_risk(ctx, risk_mode), tuple(candidates))


def judge(
    ctx: DecisionContext,
    assessment: Assessment,
    profile: CharacterProfile,
) -> Recommendation:
    """The character's half of a decision on an assessment of ``ctx``.

    Never returns an empty recommendation: when no candidate is
    desirable the rule-compliant candidate with the highest combined
    utility is picked as fallback.
    """
    blackboard = Blackboard(profile=profile)
    situation = assessment.situation
    for behaviour, verdict, au, w, spec, opinion in assessment.candidates:
        blackboard.post(
            BlackboardEntry(
                behaviour=behaviour,
                verdict=verdict,
                autonomy_utility=au,
                wellbeing_utility=w,
                wellbeing_spec=spec,
                opinion=opinion,
                evaluation=evaluate(
                    behaviour, situation, profile, verdict, opinion, au, w
                ),
            )
        )

    desirable = tuple(
        entry.behaviour
        for entry in blackboard.entries
        if entry.evaluation.desirability == 1
    )
    if desirable:
        return Recommendation(desirable=desirable, fallback=None, blackboard=blackboard)

    compliant = [
        entry for entry in blackboard.entries if entry.verdict.permissible
    ]
    if not compliant:
        raise GovernorError(
            f"no desirable and no rule-compliant candidate at step {ctx.step}"
        )
    # max keeps the first of equal totals, so ties go to the higher priority
    best = max(
        sorted(compliant, key=lambda e: ARBITRATION_PRIORITY.index(e.behaviour.kind)),
        key=lambda e: e.wellbeing_utility + e.autonomy_utility,
    )
    return Recommendation(
        desirable=(), fallback=best.behaviour, blackboard=blackboard
    )


def decide(
    ctx: DecisionContext,
    profile: CharacterProfile,
    kb: CaseBase,
    risk_mode: str = "literal",
    assessments: Optional[AssessmentTable] = None,
) -> Recommendation:
    """``judge`` on the assessment of ``ctx`` under ``risk_mode``.

    Never mutates the case base.  With an assessment table the
    assessment is read from it, and made and stored on a miss, so a
    context is assessed once per table whatever the profile.  The
    caller owns the table: it must hold assessments of ``kb`` only and
    should live no longer than the command that made it.
    """
    if assessments is None:
        return judge(ctx, assess(ctx, kb, risk_mode), profile)
    key = (ctx, risk_mode)
    assessment = assessments.get(key)
    if assessment is None:
        assessment = assessments[key] = assess(ctx, kb, risk_mode)
    return judge(ctx, assessment, profile)
