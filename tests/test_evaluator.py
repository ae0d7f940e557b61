"""Desirability evaluation: branches, value/risk gates, explanations."""

import pytest

from rulebend.casekb import CaseOpinion
from rulebend.evaluator import (
    GAIN_FLOOR,
    LOSS_FLOOR,
    RISK_AXIS,
    RISK_CEILING,
    Branch,
    EvaluationResult,
    Gate,
    contested_gates,
    evaluate,
    render_explanation,
    situation_risk,
)
from rulebend.model import (
    Behaviour,
    BehaviourKind,
    CharacterProfile,
    RuleVerdict,
)
from rulebend.utility import situation_spec

from conftest import breach_context, pending_context


def prof(wellbeing, autonomy, risk, name="T"):
    return CharacterProfile(
        name=name,
        wellbeing=float(wellbeing),
        autonomy=float(autonomy),
        risk_propensity=float(risk),
    )


def opinion(acceptable, *tags, score=None):
    if score is None:
        score = 1.0 if acceptable else 0.0
    return CaseOpinion(
        acceptable=acceptable,
        score=score,
        intentions=frozenset(tags),
        trace=(),
    )


PERMISSIBLE = RuleVerdict(permissible=True)
BREACH_OF_2 = RuleVerdict(permissible=False, violated_rule_ids=(2,))

RECORD = Behaviour(BehaviourKind.RECORD)
FOLLOW_UP = Behaviour(BehaviourKind.FOLLOW_UP)
SNOOZE = Behaviour(BehaviourKind.SNOOZE)


# ----------------------------------------------------------------------
# the two uncontested branches
# ----------------------------------------------------------------------


def test_permissible_and_acceptable_is_desirable_as_is():
    result = evaluate(
        FOLLOW_UP, situation_risk(breach_context()), prof(5, 5, 5),
        PERMISSIBLE, opinion(True, "autonomy"), -0.1, -0.35,
    )
    assert result.desirability == 1
    assert result.branch is Branch.COMPLIANT_SUPPORTED
    assert result.template_id == 7
    assert result.failed_value is None


def test_impermissible_and_unacceptable_is_rejected_as_is():
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 5, 5),
        BREACH_OF_2, opinion(False, "autonomy"), 0.5, -0.5,
    )
    assert result.desirability == 0
    assert result.branch is Branch.NONCOMPLIANT_UNSUPPORTED
    assert result.template_id == 8
    assert "breaks the rules 2" in result.explanation


# ----------------------------------------------------------------------
# bend: precedent supports breaking the rule
# ----------------------------------------------------------------------


def test_bend_passing_every_gate_is_desirable():
    # wellbeing -0.5 is exactly on the loss floor (5-10)/10: not below,
    # so it passes; autonomy 0.5 clears the gain floor (10-7)/10
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 9),
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.5,
    )
    assert result.desirability == 1
    assert result.branch is Branch.BEND_EVALUATED
    assert result.template_id == 1
    assert result.failed_value is None


def test_bend_fails_when_an_untargeted_value_drops_too_far():
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 9),
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.8,
    )
    assert result.desirability == 0
    assert result.template_id == 5
    assert result.failed_value == "wellbeing"


def test_bend_fails_when_the_targeted_value_gains_too_little():
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 9),
        BREACH_OF_2, opinion(True, "autonomy"), 0.2, -0.5,
    )
    assert result.desirability == 0
    assert result.template_id == 5
    assert result.failed_value == "autonomy"


def test_bend_fails_on_risk_after_values_pass():
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 1),
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.5,
    )
    assert result.desirability == 0
    assert result.template_id == 4
    assert result.failed_value is None
    # literal situation risk with one snooze granted exceeds the most
    # cautious ceiling but not an adventurous one
    assert result.risk == 0.06318779730318695


def test_wellbeing_gate_runs_before_autonomy():
    # both gates would fail; the explanation names the first in order
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 9),
        BREACH_OF_2, opinion(True, "autonomy"), 0.2, -0.8,
    )
    assert result.failed_value == "wellbeing"


# ----------------------------------------------------------------------
# suppress: precedent opposes a rule-compliant action
# ----------------------------------------------------------------------


def test_suppress_on_wellbeing_grounds():
    ctx = pending_context()
    result = evaluate(
        SNOOZE, situation_risk(ctx), prof(9, 5, 9),
        PERMISSIBLE, opinion(False, "wellbeing"), 1.0, -0.9,
    )
    assert result.desirability == 0
    assert result.branch is Branch.SUPPRESS_EVALUATED
    assert result.template_id == 3
    assert result.failed_value == "wellbeing"


def test_suppress_on_autonomy_grounds():
    result = evaluate(
        FOLLOW_UP, situation_risk(breach_context()), prof(5, 7, 9),
        PERMISSIBLE, opinion(False, "autonomy"), -0.7, -0.35,
    )
    assert result.desirability == 0
    assert result.template_id == 6
    assert result.failed_value == "autonomy"


def test_suppress_ignores_values_the_stance_does_not_serve():
    # wellbeing is terrible but the adverse precedent is autonomy-minded,
    # so only autonomy is gated; -0.2 stays above the loss floor -0.3
    result = evaluate(
        FOLLOW_UP, situation_risk(breach_context()), prof(9, 7, 9),
        PERMISSIBLE, opinion(False, "autonomy"), -0.2, -0.95,
    )
    assert result.desirability == 1
    assert result.template_id == 9


def test_suppress_fails_on_risk_after_values_pass():
    result = evaluate(
        FOLLOW_UP, situation_risk(breach_context()), prof(5, 7, 1),
        PERMISSIBLE, opinion(False, "autonomy"), -0.2, -0.35,
    )
    assert result.desirability == 0
    assert result.template_id == 2
    assert result.failed_value is None


def test_suppress_overridden_when_everything_is_within_character():
    result = evaluate(
        FOLLOW_UP, situation_risk(breach_context()), prof(5, 7, 9),
        PERMISSIBLE, opinion(False, "autonomy"), -0.2, -0.35,
    )
    assert result.desirability == 1
    assert result.branch is Branch.SUPPRESS_EVALUATED
    assert result.template_id == 9


# ----------------------------------------------------------------------
# the gates as data
# ----------------------------------------------------------------------


def test_bend_gates_every_value_then_risk():
    situation = situation_risk(breach_context())
    assert contested_gates(situation, BREACH_OF_2, opinion(True, "autonomy"),
                           0.4, -0.2) == (
        Gate("wellbeing", -0.2, LOSS_FLOOR),
        Gate("autonomy", 0.4, GAIN_FLOOR),
        Gate(RISK_AXIS, situation.risk, RISK_CEILING),
    )


def test_suppress_gates_only_the_values_the_stance_serves():
    situation = situation_risk(breach_context())
    assert contested_gates(situation, PERMISSIBLE, opinion(False, "wellbeing"),
                           0.4, -0.2) == (
        Gate("wellbeing", -0.2, LOSS_FLOOR),
        Gate(RISK_AXIS, situation.risk, RISK_CEILING),
    )


def test_uncontested_candidates_have_no_gates():
    situation = situation_risk(breach_context())
    assert contested_gates(situation, PERMISSIBLE, opinion(True), 0.0, 0.0) == ()
    assert contested_gates(situation, BREACH_OF_2, opinion(False), 0.0, 0.0) == ()


# ----------------------------------------------------------------------
# worked reference decisions
# ----------------------------------------------------------------------


def test_recording_early_is_a_bend_an_adventurous_character_accepts():
    # second breach of the day, two snoozes granted, high-impact medicine:
    # recording now breaks the escalation rule but precedent supports it
    ctx = breach_context(epsilon_m=1, missed_doses=0.0, follow_ups=3,
                         snoozes=2, step=19)
    adventurous = prof(2, 9, 9, name="M_ar")
    result = evaluate(
        RECORD, situation_risk(ctx, "harm"), adventurous,
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.5,
    )
    assert result.desirability == 1
    assert result.template_id == 1
    assert result.risk == 0.7258676239763759  # just under the ceiling

    cautious = prof(3, 7, 1, name="A")
    blocked = evaluate(
        RECORD, situation_risk(ctx, "literal"), cautious,
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.5,
    )
    assert blocked.desirability == 0
    assert blocked.template_id == 4  # values pass, risk ceiling does not


def test_compliant_snooze_suppressed_by_a_wellbeing_guardian():
    ctx = pending_context()
    result = evaluate(
        SNOOZE, situation_risk(ctx), prof(9, 2, 2, name="M_wr"),
        PERMISSIBLE, opinion(False, "wellbeing"), 1.0, -0.9,
    )
    assert result.desirability == 0
    assert result.template_id == 3
    assert result.failed_value == "wellbeing"


# ----------------------------------------------------------------------
# result bookkeeping
# ----------------------------------------------------------------------


def test_result_records_the_risk_reading_it_used():
    ctx = breach_context(snoozes=2)
    for mode in ("literal", "harm"):
        result = evaluate(
            FOLLOW_UP, situation_risk(ctx, mode), prof(5, 5, 5),
            PERMISSIBLE, opinion(True), -0.1, -0.35,
        )
        assert result.risk_mode == mode
        assert result.risk_spec == situation_spec(ctx)
    assert isinstance(result, EvaluationResult)


def test_explanation_comes_from_the_assigned_template():
    result = evaluate(
        RECORD, situation_risk(breach_context()), prof(5, 7, 9),
        BREACH_OF_2, opinion(True, "autonomy"), 0.5, -0.5,
    )
    assert result.explanation == render_explanation(
        1, rule_ids=(2,), intentions=frozenset({"autonomy"})
    )


# ----------------------------------------------------------------------
# explanation wording (byte-exact external contract)
# ----------------------------------------------------------------------

CANON = {
    1: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. Since it increases "
        "autonomy values greatly, while not reducing the other values "
        "wellbeing by a considerable amount, and the outcome is within "
        "accepted risk levels, deemed accepted by the PSRB system."
    ),
    2: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since the "
        "action outcomes introduce a high risk, deemed not accepted by "
        "the PSRB system."
    ),
    3: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since it "
        "decreases wellbeing values by a considerable amount, the action "
        "is deemed unacceptable by the system"
    ),
    4: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. Although the value "
        "tradeoff is satisfactory, the risk taken by the action is not "
        "acceptable to bend the rule."
    ),
    5: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. But, the PSRB "
        "system suggests that the value tradeoff is not satisfactory to "
        "bend the rule."
    ),
    6: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. But, the "
        "PSRB system suggests that the value tradeoff is not "
        "satisfactory to bend the rule."
    ),
    7: (
        "The action does not break any rules and is considered desirable "
        "by experts, deemed accepted by the PSRB system."
    ),
    8: (
        "The action breaks the rules 2 and is considered undesirable by "
        "experts, deemed not accepted by the PSRB system."
    ),
    9: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since the "
        "value tradeoff and the risk stay within the limits the agent's "
        "character accepts, deemed accepted by the PSRB system."
    ),
}


@pytest.mark.parametrize("template_id", sorted(CANON))
def test_rendered_wording_is_byte_exact(template_id):
    rendered = render_explanation(
        template_id, rule_ids=(2,), intentions=frozenset({"autonomy"})
    )
    if template_id == 3:
        rendered = render_explanation(
            template_id, rule_ids=(), intentions=frozenset({"wellbeing"})
        )
    assert rendered == CANON[template_id]


def test_contested_rejections_do_not_end_with_a_period():
    assert not CANON[3].endswith(".")
    assert CANON[4].endswith(".") and CANON[5].endswith(".")


def test_placeholder_substitution():
    multi = render_explanation(1, rule_ids=(1, 2), intentions=frozenset())
    assert "breaks the rules 1, 2" in multi
    assert "increases none values" in multi
    assert "other values autonomy, wellbeing" in multi

    both = render_explanation(
        3, intentions=frozenset({"autonomy", "wellbeing"})
    )
    assert "decreases autonomy, wellbeing values" in both

    empty = render_explanation(8, rule_ids=())
    assert "breaks the rules none" in empty


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        render_explanation(10)
