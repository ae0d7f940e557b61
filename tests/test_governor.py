"""Governor: candidate enumeration, pipeline runs, arbitration."""

import pytest
from hypothesis import given, reject, settings, strategies as st

from rulebend import evaluator
from rulebend.casekb import CaseBase
from rulebend.governor import (
    ARBITRATION_PRIORITY,
    GovernorError,
    Recommendation,
    candidate_behaviours,
    decide,
)
from rulebend.model import (
    Behaviour,
    BehaviourKind,
    Blackboard,
    CharacterProfile,
    ContextError,
    DecisionContext,
    EPSILON_CLASSES,
    Instruction,
    ReminderState,
)

from conftest import breach_context, pending_context


def ctx_with(**overrides):
    fields = dict(
        epsilon_m=1,
        missed_doses=0.0,
        follow_ups=0,
        reminder_state=ReminderState.ISSUED,
        last_instruction=None,
        instruction_pending=False,
        acknowledged_without_taking=False,
        snoozes_granted=0,
        snooze_remaining=0,
        step=1,
    )
    fields.update(overrides)
    return DecisionContext(**fields)


class TestCandidates:
    def test_inside_a_snooze_window_only_the_snooze_continues(self):
        ctx = ctx_with(reminder_state=ReminderState.SNOOZED,
                       snoozes_granted=1, snooze_remaining=2)
        (only,) = candidate_behaviours(ctx)
        assert only.kind is BehaviourKind.SNOOZE
        assert only.obeys is None

    def test_pending_snooze_yields_the_obeying_snooze(self):
        ctx = pending_context(Instruction.SNOOZE)
        (only,) = candidate_behaviours(ctx)
        assert only.kind is BehaviourKind.SNOOZE
        assert only.obeys is Instruction.SNOOZE

    def test_pending_acknowledge_yields_the_obeying_wait(self):
        ctx = pending_context(Instruction.ACKNOWLEDGE)
        (only,) = candidate_behaviours(ctx)
        assert only.kind is BehaviourKind.ACK_WAIT
        assert only.obeys is Instruction.ACKNOWLEDGE

    def test_acknowledged_without_taking_expands_to_the_trio(self):
        kinds = [b.kind for b in candidate_behaviours(breach_context())]
        assert kinds == [BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD,
                         BehaviourKind.REPORT]

    def test_exhausted_patience_expands_to_the_trio(self):
        ctx = ctx_with(reminder_state=ReminderState.SNOOZED, follow_ups=3,
                       snoozes_granted=3)
        kinds = [b.kind for b in candidate_behaviours(ctx)]
        assert kinds == [BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD,
                         BehaviourKind.REPORT]

    def test_expired_snooze_window_follows_up(self):
        ctx = ctx_with(reminder_state=ReminderState.SNOOZED, follow_ups=1,
                       snoozes_granted=1)
        (only,) = candidate_behaviours(ctx)
        assert only.kind is BehaviourKind.FOLLOW_UP

    def test_fresh_cycle_reminds(self):
        (only,) = candidate_behaviours(ctx_with())
        assert only.kind is BehaviourKind.REMIND

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        epsilon_m=st.sampled_from(EPSILON_CLASSES),
        missed_doses=st.floats(min_value=0.0, max_value=10.0),
        follow_ups=st.integers(0, 6),
        reminder_state=st.sampled_from(ReminderState),
        last_instruction=st.sampled_from(Instruction),
        acknowledged_without_taking=st.booleans(),
        snoozes_granted=st.integers(0, 6),
        snooze_remaining=st.integers(0, 3),
        step=st.integers(0, 29),
    )
    def test_a_pending_instruction_leaves_one_candidate(self, **fields):
        # Recommendation.chosen needs no obey-first rule: with a single
        # candidate there is nothing for a preference to choose between.
        try:
            ctx = DecisionContext(instruction_pending=True, **fields)
        except ContextError:
            reject()
        assert len(candidate_behaviours(ctx)) == 1


class TestDecide:
    def test_posts_every_candidate_in_canonical_order(self, seed_kb, profiles):
        rec = decide(breach_context(), profiles["A"], seed_kb)
        kinds = [e.behaviour.kind for e in rec.blackboard.entries]
        assert kinds == [BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD,
                         BehaviourKind.REPORT]
        for entry in rec.blackboard.entries:
            assert entry.evaluation.desirability in (0, 1)
            assert entry.opinion.trace  # the packaged base is not empty

    def test_keeps_only_desirable_behaviours(self, seed_kb, profiles):
        # first breach, cautious character: the follow-up is the sole
        # desirable behaviour (recording trips the risk ceiling and the
        # precedents oppose reporting this early)
        rec = decide(breach_context(), profiles["A"], seed_kb)
        assert [b.kind for b in rec.desirable] == [BehaviourKind.FOLLOW_UP]
        assert rec.fallback is None
        assert not rec.is_fallback()

    def test_falls_back_to_best_compliant_when_nothing_is_desirable(
            self, seed_kb, profiles):
        # moderate-impact medicine at the second breach: precedents
        # oppose all three candidates for an autonomy-first character,
        # so the governor must still hand the robot one compliant action
        ctx = breach_context(epsilon_m=2, follow_ups=3, snoozes=2, step=19)
        rec = decide(ctx, profiles["AR"], seed_kb)
        assert rec.desirable == ()
        assert rec.is_fallback()
        assert rec.fallback.kind is BehaviourKind.REPORT
        desirabilities = [
            e.evaluation.desirability for e in rec.blackboard.entries
        ]
        assert desirabilities == [0, 0, 0]

    def test_fallback_picks_the_highest_combined_utility(
            self, seed_kb, profiles):
        ctx = breach_context(epsilon_m=2, follow_ups=3, snoozes=2, step=19)
        rec = decide(ctx, profiles["AR"], seed_kb)
        entries = {e.behaviour.kind: e for e in rec.blackboard.entries}
        report = entries[BehaviourKind.REPORT]
        follow_up = entries[BehaviourKind.FOLLOW_UP]
        assert (report.wellbeing_utility + report.autonomy_utility
                > follow_up.wellbeing_utility + follow_up.autonomy_utility)

    def test_obeying_a_pending_snooze_is_desirable(self, seed_kb, profiles):
        rec = decide(pending_context(Instruction.SNOOZE), profiles["A"], seed_kb)
        assert [b.kind for b in rec.desirable] == [BehaviourKind.SNOOZE]
        assert rec.chosen.obeys is Instruction.SNOOZE

    def test_never_mutates_the_case_base(self, seed_kb, profiles):
        before = seed_kb.cases
        decide(breach_context(), profiles["WR"], seed_kb)
        decide(pending_context(), profiles["A"], seed_kb)
        assert seed_kb.cases == before
        assert len(seed_kb) == 114

    def test_risk_mode_reaches_every_evaluation(self, seed_kb, profiles):
        rec = decide(breach_context(), profiles["A"], seed_kb, risk_mode="harm")
        assert all(
            e.evaluation.risk_mode == "harm" for e in rec.blackboard.entries
        )

    def test_reads_the_situation_risk_once_per_decision(
        self, seed_kb, profiles, monkeypatch
    ):
        calls = []
        real = evaluator.behaviour_risk

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator, "behaviour_risk", counted)
        rec = decide(breach_context(), profiles["A"], seed_kb)
        assert len(rec.blackboard.entries) == 3
        assert len(calls) == 1
        risk = evaluator.situation_risk(breach_context()).risk
        assert all(e.evaluation.risk == risk for e in rec.blackboard.entries)


class TestAssessmentTable:
    @staticmethod
    def contexts():
        return (
            breach_context(),
            breach_context(epsilon_m=2, follow_ups=3, snoozes=2, step=19),
            pending_context(Instruction.SNOOZE),
            ctx_with(),
        )

    def test_assesses_each_context_once_across_profiles(
        self, seed_kb, profiles, monkeypatch
    ):
        risk_calls, retrieve_calls = [], []
        real_risk, real_retrieve = evaluator.behaviour_risk, CaseBase.retrieve

        def counted_risk(*args, **kwargs):
            risk_calls.append(args)
            return real_risk(*args, **kwargs)

        def counted_retrieve(kb, *args, **kwargs):
            retrieve_calls.append(args)
            return real_retrieve(kb, *args, **kwargs)

        monkeypatch.setattr(evaluator, "behaviour_risk", counted_risk)
        monkeypatch.setattr(CaseBase, "retrieve", counted_retrieve)
        contexts = self.contexts()
        table = {}
        shared = [decide(ctx, profile, seed_kb, assessments=table)
                  for profile in profiles.values() for ctx in contexts]
        assert len(risk_calls) == len(contexts)
        assert len(retrieve_calls) == sum(
            len(candidate_behaviours(ctx)) for ctx in contexts)
        assert len(table) == len(contexts)
        # sharing changes what is computed, never what is recommended
        assert shared == [decide(ctx, profile, seed_kb)
                          for profile in profiles.values() for ctx in contexts]

    def test_a_table_keeps_the_risk_modes_apart(self, seed_kb, profiles):
        table = {}
        for ctx in self.contexts():
            literal = decide(ctx, profiles["A"], seed_kb, "literal", table)
            harm = decide(ctx, profiles["A"], seed_kb, "harm", table)
            assert harm == decide(ctx, profiles["A"], seed_kb, "harm")
            assert harm != literal
        assert len(table) == 2 * len(self.contexts())


class TestArbitrate:
    """``Recommendation.chosen``: the fallback, or else the first desirable
    behaviour in ARBITRATION_PRIORITY."""

    def _rec(self, *behaviours, fallback=None):
        board = Blackboard(profile=CharacterProfile("T", 5.0, 5.0, 5.0))
        return Recommendation(
            desirable=tuple(behaviours), fallback=fallback, blackboard=board
        )

    def test_priority_is_escalation_first(self):
        assert ARBITRATION_PRIORITY == (
            BehaviourKind.REPORT, BehaviourKind.RECORD,
            BehaviourKind.FOLLOW_UP, BehaviourKind.SNOOZE,
            BehaviourKind.REMIND, BehaviourKind.ACK_WAIT,
        )

    def test_picks_by_priority_among_desirables(self):
        rec = self._rec(
            Behaviour(BehaviourKind.FOLLOW_UP),
            Behaviour(BehaviourKind.RECORD),
            Behaviour(BehaviourKind.REPORT),
        )
        assert rec.chosen.kind is BehaviourKind.REPORT
        rec = self._rec(
            Behaviour(BehaviourKind.FOLLOW_UP), Behaviour(BehaviourKind.RECORD)
        )
        assert rec.chosen.kind is BehaviourKind.RECORD

    def test_fallback_recommendation_is_returned_directly(self):
        fallback = Behaviour(BehaviourKind.FOLLOW_UP)
        rec = self._rec(fallback=fallback)
        assert rec.chosen is fallback

    def test_empty_recommendation_is_an_error(self):
        with pytest.raises(GovernorError):
            self._rec().chosen
