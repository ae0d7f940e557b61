import pytest

from rulebend.model import (
    AUTONOMY,
    Behaviour,
    BehaviourKind,
    Blackboard,
    BlackboardEntry,
    CharacterProfile,
    ContextError,
    DecisionContext,
    GammaSpec,
    Instruction,
    ModelError,
    ProfileError,
    ReminderState,
    RuleVerdict,
    SIMULATED_KINDS,
    WELLBEING,
    validate_profile,
)

from conftest import breach_context


def make_profile(**kw):
    defaults = dict(name="T", wellbeing=5.0, autonomy=5.0, risk_propensity=5.0)
    defaults.update(kw)
    return CharacterProfile(**defaults)


class TestBehaviour:
    def test_simulated_kinds_are_the_six_pipeline_actions(self):
        assert len(SIMULATED_KINDS) == 6
        assert BehaviourKind.RESTRAIN not in SIMULATED_KINDS

    def test_str_is_the_kind_value(self):
        assert str(Behaviour(BehaviourKind.FOLLOW_UP)) == "follow_up"
        assert str(Behaviour(BehaviourKind.ACK_WAIT)) == "acknowledge_wait"

    def test_obeys_defaults_to_none(self):
        assert Behaviour(BehaviourKind.REMIND).obeys is None


class TestGammaSpec:
    def test_requires_positive_shape_and_scale(self):
        with pytest.raises(ModelError):
            GammaSpec(shape=0.0, scale=0.1)
        with pytest.raises(ModelError):
            GammaSpec(shape=1.0, scale=-0.1)

    def test_default_shift(self):
        assert GammaSpec(shape=1.0, scale=0.1).shift == -1.0

    @pytest.mark.parametrize("field", ["shape", "scale", "shift"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_parameters(self, field, value):
        params = {"shape": 4.5, "scale": 0.05, "shift": -1.0, field: value}
        with pytest.raises(ModelError, match="finite"):
            GammaSpec(**params)


class TestCharacterProfile:
    def test_weight_for_known_tags(self):
        profile = make_profile(wellbeing=3.0, autonomy=7.0)
        assert profile.weight_for(WELLBEING) == 3.0
        assert profile.weight_for(AUTONOMY) == 7.0

    def test_weight_for_unknown_tag_raises(self):
        with pytest.raises(ProfileError):
            make_profile().weight_for("fame")

    @pytest.mark.parametrize("field", ["wellbeing", "autonomy", "risk_propensity"])
    @pytest.mark.parametrize("value", [-0.1, 10.1, True, "5"])
    def test_validate_rejects_out_of_range_weights(self, field, value):
        with pytest.raises(ProfileError):
            validate_profile(make_profile(**{field: value}))

    def test_validate_rejects_empty_name(self):
        with pytest.raises(ProfileError):
            validate_profile(make_profile(name=""))

    def test_validate_accepts_shipped_style_profile(self):
        validate_profile(make_profile(wellbeing=0, autonomy=10, risk_propensity=1))


class TestDecisionContext:
    def test_breach_context_is_valid(self):
        ctx = breach_context()
        assert ctx.acknowledged_without_taking

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ContextError):
            breach_context(epsilon_m=0)
        with pytest.raises(ContextError):
            breach_context(epsilon_m=4)

    def test_rejects_negative_counters(self):
        with pytest.raises(ContextError):
            breach_context(missed_doses=-1.0)
        with pytest.raises(ContextError):
            breach_context(follow_ups=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_missed_doses(self, value):
        with pytest.raises(ContextError, match="missed_doses must be finite"):
            breach_context(missed_doses=value)

    def test_acknowledged_without_taking_needs_acknowledge(self):
        with pytest.raises(ContextError):
            DecisionContext(
                epsilon_m=1, missed_doses=0.0, follow_ups=0,
                reminder_state=ReminderState.SNOOZED,
                last_instruction=Instruction.SNOOZE,
                instruction_pending=False,
                acknowledged_without_taking=True,
                snoozes_granted=0, snooze_remaining=0, step=1,
            )

    def test_pending_instruction_must_be_named(self):
        with pytest.raises(ContextError):
            DecisionContext(
                epsilon_m=1, missed_doses=0.0, follow_ups=0,
                reminder_state=ReminderState.ISSUED,
                last_instruction=None,
                instruction_pending=True,
                acknowledged_without_taking=False,
                snoozes_granted=0, snooze_remaining=0, step=1,
            )


class TestRuleVerdict:
    def test_permissible_iff_no_ids(self):
        with pytest.raises(ModelError):
            RuleVerdict(permissible=True, violated_rule_ids=(1,))
        with pytest.raises(ModelError):
            RuleVerdict(permissible=False, violated_rule_ids=())

    def test_ids_must_be_sorted_unique(self):
        with pytest.raises(ModelError):
            RuleVerdict(permissible=False, violated_rule_ids=(2, 1))
        with pytest.raises(ModelError):
            RuleVerdict(permissible=False, violated_rule_ids=(1, 1))


class TestBlackboard:
    def _entry(self, kind):
        return BlackboardEntry(
            behaviour=Behaviour(kind),
            verdict=RuleVerdict(permissible=True),
            autonomy_utility=0.0,
            wellbeing_utility=0.0,
            wellbeing_spec=GammaSpec(1.0, 0.1),
            opinion=None,
            evaluation=None,
        )

    def test_post_and_lookup(self):
        board = Blackboard(context=breach_context(), profile=make_profile())
        board.post(self._entry(BehaviourKind.FOLLOW_UP))
        (entry,) = board.entries
        assert entry.behaviour.kind is BehaviourKind.FOLLOW_UP

    def test_duplicate_post_rejected(self):
        board = Blackboard(context=breach_context(), profile=make_profile())
        board.post(self._entry(BehaviourKind.RECORD))
        with pytest.raises(ModelError):
            board.post(self._entry(BehaviourKind.RECORD))
