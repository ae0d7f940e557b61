"""Case base: feature encoding, KNN retrieval, voting, persistence."""

import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from rulebend.casekb import (
    DIMENSION,
    FEATURE_NAMES,
    Case,
    CaseBase,
    KBError,
    case_weight,
    distance,
    feature_vector,
)
from rulebend.model import (
    Behaviour,
    BehaviourKind,
    ReminderState,
    RuleVerdict,
    SIMULATED_KINDS,
)
from rulebend.utility import UTILITY_GRID

from conftest import DATA, breach_context


def make_case(case_id, acceptability=1.0, intention=("autonomy",), **overrides):
    fields = dict(
        case_id=case_id,
        epsilon_m=1,
        missed_doses=0.0,
        follow_ups=1,
        reminder_state=ReminderState.ACKNOWLEDGED,
        acknowledged_without_taking=True,
        behaviour=BehaviourKind.FOLLOW_UP,
        autonomy_utility=-0.1,
        wellbeing_utility=-0.35,
        acceptability=acceptability,
        intention=intention,
    )
    fields.update(overrides)
    return Case(**fields)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


class TestFeatureVector:
    def test_dimension_and_manifest_agree(self):
        assert DIMENSION == 25
        assert len(FEATURE_NAMES) == 25
        vec = make_case("x").features()
        assert len(vec) == DIMENSION

    def test_one_hot_blocks_sum_to_one(self):
        vec = feature_vector(
            2, 1.5, 4, ReminderState.SNOOZED, False,
            BehaviourKind.SNOOZE, 0.0, -0.5,
        )
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["epsilon_2"] == 1.0
        assert sum(named[f"epsilon_{e}"] for e in (1, 2, 3)) == 1.0
        assert named["missed_1"] == 1.0  # 1.5 falls in the "1" bucket
        assert named["follow_ups_3plus"] == 1.0  # counts saturate at 3
        assert named["state_snoozed"] == 1.0
        assert named["behaviour_snooze"] == 1.0
        assert named["acknowledged_without_taking"] == 0.0
        assert named["autonomy_utility"] == 0.0
        assert named["wellbeing_utility"] == -0.5

    def test_missed_doses_saturate_at_four(self):
        a = feature_vector(1, 4.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.REMIND, 0.0, 0.0)
        b = feature_vector(1, 17.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.REMIND, 0.0, 0.0)
        assert a == b

    def test_rejects_unknown_epsilon_and_restrain(self):
        with pytest.raises(KBError):
            feature_vector(4, 0.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.REMIND, 0.0, 0.0)
        with pytest.raises(KBError):
            feature_vector(1, 0.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.RESTRAIN, 0.0, 0.0)


class TestDistanceAndWeight:
    def test_identical_vectors_are_at_zero(self):
        vec = make_case("x").features()
        assert distance(vec, vec) == 0.0

    def test_single_category_flip_costs_sqrt2_over_5(self):
        a = feature_vector(1, 0.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.REMIND, 0.0, 0.0)
        b = feature_vector(2, 0.0, 0, ReminderState.ISSUED, False,
                           BehaviourKind.REMIND, 0.0, 0.0)
        assert distance(a, b) == pytest.approx(math.sqrt(2.0) / 5.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        vec = make_case("x").features()
        with pytest.raises(KBError):
            distance(vec[:-1], vec)

    def test_near_matches_weigh_ten(self):
        assert case_weight(0.0) == 10.0
        assert case_weight(0.1) == 10.0

    def test_far_cases_weigh_inverse_distance(self):
        assert case_weight(0.5) == 2.0
        assert case_weight(0.2) == 5.0

    def test_negative_distance_rejected(self):
        with pytest.raises(KBError):
            case_weight(-0.01)


# ----------------------------------------------------------------------
# retrieval
# ----------------------------------------------------------------------


class TestRetrieve:
    def test_orders_by_distance(self):
        kb = CaseBase([
            make_case("far", follow_ups=3),
            make_case("near"),
            make_case("mid", autonomy_utility=-0.2),
        ])
        got = kb.retrieve(make_case("q").features(), k=3)
        assert [case.case_id for case, _ in got] == ["near", "mid", "far"]
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert dists[0] == 0.0

    def test_equal_distances_break_ties_by_case_id(self):
        kb = CaseBase([make_case("b"), make_case("a"), make_case("c")])
        got = kb.retrieve(make_case("q").features(), k=3)
        assert [case.case_id for case, _ in got] == ["a", "b", "c"]
        assert all(d == 0.0 for _, d in got)

    def test_k_larger_than_base_returns_all(self):
        kb = CaseBase([make_case("a")])
        assert len(kb.retrieve(make_case("q").features(), k=5)) == 1

    def test_k_below_one_rejected(self):
        kb = CaseBase([make_case("a")])
        with pytest.raises(KBError):
            kb.retrieve(make_case("q").features(), k=0)

    def test_matches_brute_force_on_random_bases(self):
        rng = random.Random(20260814)
        states = list(ReminderState)
        kinds = [BehaviourKind.REMIND, BehaviourKind.SNOOZE,
                 BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD,
                 BehaviourKind.REPORT, BehaviourKind.ACK_WAIT]
        for trial in range(25):
            cases = [
                make_case(
                    f"r{trial}-{i}",
                    epsilon_m=rng.choice((1, 2, 3)),
                    missed_doses=rng.uniform(0.0, 5.0),
                    follow_ups=rng.randrange(6),
                    reminder_state=rng.choice(states),
                    acknowledged_without_taking=rng.random() < 0.5,
                    behaviour=rng.choice(kinds),
                    autonomy_utility=rng.uniform(-1.0, 1.0),
                    wellbeing_utility=rng.uniform(-1.0, 1.0),
                )
                for i in range(rng.randrange(5, 60))
            ]
            kb = CaseBase(cases)
            query = feature_vector(
                rng.choice((1, 2, 3)), rng.uniform(0.0, 5.0), rng.randrange(6),
                rng.choice(states), rng.random() < 0.5, rng.choice(kinds),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            )
            k = rng.randrange(1, 8)
            expected = sorted(
                ((distance(query, c.features()), c.case_id) for c in cases),
            )[:k]
            got = [(d, c.case_id) for c, d in kb.retrieve(query, k=k)]
            assert got == expected

    def test_matches_brute_force_with_exact_ties(self):
        # Few blocks, utilities from a five-value subset of UTILITY_GRID
        # repeated across blocks: many cases tie exactly, at the k-th
        # place and across mismatch levels (a 1.0 utility gap in both
        # utilities costs as much as two categorical mismatches).
        rng = random.Random(20261018)
        utilities = [u for u in UTILITY_GRID if u in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        choices = dict(
            epsilon_m=(1, 2, 3),
            missed_doses=(0.0, 1.0, 2.0, 3.0, 4.0),
            follow_ups=(0, 1, 2, 3),
            reminder_state=tuple(ReminderState),
            acknowledged_without_taking=(False, True),
            behaviour=SIMULATED_KINDS,
        )
        for trial in range(40):
            base = {name: rng.choice(values) for name, values in choices.items()}
            blocks, block_count = [], rng.randint(2, 4)
            while len(blocks) < block_count:
                block = dict(base)
                for name in rng.sample(sorted(choices), rng.randint(0, 2)):
                    block[name] = rng.choice(choices[name])
                if block not in blocks:
                    blocks.append(block)
            pairs = [
                (rng.choice(utilities), rng.choice(utilities))
                for _ in range(rng.randint(3, 6))
            ]
            ids = rng.sample(range(1000), len(blocks) * len(pairs))
            cases = [
                make_case(
                    f"t{trial}-{ids.pop():03d}",
                    autonomy_utility=au, wellbeing_utility=w, **block,
                )
                for block in blocks
                for au, w in pairs
            ]
            kb = CaseBase(cases)
            for block in blocks:
                for _ in range(3):
                    query = make_case(
                        "q", autonomy_utility=rng.choice(utilities),
                        wellbeing_utility=rng.choice(utilities), **block,
                    ).features()
                    brute = sorted(
                        (distance(query, c.features()), c.case_id) for c in cases
                    )
                    for k in range(1, 9):
                        got = [(d, c.case_id) for c, d in kb.retrieve(query, k=k)]
                        assert got == brute[:k]

    @pytest.mark.parametrize("index, value", [
        (0, 0.5), (0, -1.0), (0, 2.0), (7, float("nan")),
        (DIMENSION - 2, float("nan")), (DIMENSION - 1, float("inf")),
        (DIMENSION - 2, float("-inf")),
    ])
    def test_malformed_query_coordinate_rejected(self, index, value):
        kb = CaseBase([make_case("a")])
        query = list(make_case("q").features())
        query[index] = value
        with pytest.raises(KBError):
            kb.retrieve(query)

    @pytest.mark.parametrize("length", [DIMENSION - 1, DIMENSION + 1])
    def test_wrong_query_length_rejected(self, length):
        kb = CaseBase([make_case("a")])
        query = (make_case("q").features() + (0.0,))[:length]
        with pytest.raises(KBError, match="dimension"):
            kb.retrieve(query)


# ----------------------------------------------------------------------
# consultation
# ----------------------------------------------------------------------


PERMISSIBLE = RuleVerdict(permissible=True)
BREACH_OF_2 = RuleVerdict(permissible=False, violated_rule_ids=(2,))


class TestConsult:
    def _consult(self, kb):
        ctx = breach_context()
        return kb.consult(
            Behaviour(BehaviourKind.FOLLOW_UP), ctx,
            autonomy_utility=-0.1, wellbeing_utility=-0.35,
            verdict=PERMISSIBLE,
        )

    def test_empty_base_defers_to_the_rule_verdict(self):
        kb = CaseBase()
        ctx = breach_context()
        ok = kb.consult(Behaviour(BehaviourKind.FOLLOW_UP), ctx, -0.1, -0.35,
                        PERMISSIBLE)
        assert (ok.acceptable, ok.score, ok.intentions, ok.trace) == (
            True, 1.0, frozenset(), ())
        bad = kb.consult(Behaviour(BehaviourKind.RECORD), ctx, 0.5, -0.5,
                         BREACH_OF_2)
        assert (bad.acceptable, bad.score, bad.intentions, bad.trace) == (
            False, 0.0, frozenset(), ())

    def test_three_near_matches_vote_two_thirds(self):
        # all three neighbours sit within the near-match radius (weight 10
        # each); acceptabilities 1, 1, 0 give score 20/30 and the opinion
        # collects intentions only from the two acceptable voters
        kb = CaseBase([
            make_case("acc-au", acceptability=1.0, intention=("autonomy",)),
            make_case("acc-wb", acceptability=1.0, intention=("wellbeing",)),
            make_case("unacc", acceptability=0.0, intention=("autonomy",)),
        ])
        opinion = self._consult(kb)
        assert opinion.score == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert opinion.acceptable
        assert opinion.intentions == frozenset({"autonomy", "wellbeing"})
        assert [t.weight for t in opinion.trace] == [10.0, 10.0, 10.0]
        assert [t.distance for t in opinion.trace] == [0.0, 0.0, 0.0]

    def test_losing_side_carries_the_intentions_when_unacceptable(self):
        kb = CaseBase([
            make_case("acc", acceptability=1.0, intention=("autonomy",)),
            make_case("un-1", acceptability=0.0, intention=("wellbeing",)),
            make_case("un-2", acceptability=0.0, intention=("wellbeing",)),
        ])
        opinion = self._consult(kb)
        assert opinion.score == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert not opinion.acceptable
        assert opinion.intentions == frozenset({"wellbeing"})

    def test_exact_half_score_reads_acceptable(self):
        kb = CaseBase([
            make_case("yes", acceptability=1.0, intention=("autonomy",)),
            make_case("no", acceptability=0.0, intention=("wellbeing",)),
        ])
        opinion = self._consult(kb)
        assert opinion.score == 0.5
        assert opinion.acceptable
        assert opinion.intentions == frozenset({"autonomy"})

    def test_trace_records_the_neighbours_in_rank_order(self):
        # utilities picked so the shifted case differs by exactly 0.5
        # in one scalar coordinate: distance sqrt(0.25)/5 == 0.1, i.e.
        # exactly on the near-match radius, which still weighs 10
        kb = CaseBase([
            make_case("exact", autonomy_utility=0.0, wellbeing_utility=0.0),
            make_case("shifted", autonomy_utility=0.0, wellbeing_utility=-0.5),
        ])
        opinion = kb.consult(
            Behaviour(BehaviourKind.FOLLOW_UP), breach_context(),
            autonomy_utility=0.0, wellbeing_utility=0.0, verdict=PERMISSIBLE,
        )
        assert [t.case_id for t in opinion.trace] == ["exact", "shifted"]
        assert opinion.trace[0].weight == 10.0
        assert opinion.trace[1].distance == 0.1
        assert opinion.trace[1].weight == 10.0


# ----------------------------------------------------------------------
# case validation
# ----------------------------------------------------------------------


class TestCaseValidation:
    def test_unknown_intention_tag_rejected(self):
        with pytest.raises(KBError):
            make_case("x", intention=("dignity",))

    def test_unsorted_intention_rejected(self):
        with pytest.raises(KBError):
            make_case("x", intention=("wellbeing", "autonomy"))

    def test_empty_intention_rejected(self):
        with pytest.raises(KBError):
            make_case("x", intention=())

    @pytest.mark.parametrize("field", [
        "missed_doses", "autonomy_utility", "wellbeing_utility", "acceptability",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(KBError, match=f"{field} must be finite"):
            make_case("x", **{field: value})

    def test_acceptability_outside_unit_interval_rejected(self):
        with pytest.raises(KBError):
            make_case("x", acceptability=1.5)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(KBError, match="duplicate"):
            CaseBase([make_case("same"), make_case("same")])


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


class TestPersistence:
    def test_roundtrip_preserves_every_case(self, tmp_path):
        original = CaseBase([
            make_case("a"),
            make_case("b", acceptability=0.0, intention=("wellbeing",),
                      behaviour=BehaviourKind.REPORT, epsilon_m=3),
        ])
        target = tmp_path / "kb.jsonl"
        original.save(target)
        loaded = CaseBase.load(target)
        assert loaded.cases == original.cases

    def test_missing_file(self, tmp_path):
        with pytest.raises(KBError, match="case base not found"):
            CaseBase.load(tmp_path / "nope.jsonl")

    def test_empty_file_is_missing_header(self, tmp_path):
        target = tmp_path / "kb.jsonl"
        target.write_text("", encoding="utf-8")
        with pytest.raises(KBError, match="missing header"):
            CaseBase.load(target)

    def test_first_record_must_be_the_header(self, tmp_path):
        target = tmp_path / "kb.jsonl"
        target.write_text('{"record_type": "case"}\n', encoding="utf-8")
        with pytest.raises(KBError, match="header"):
            CaseBase.load(target)

    def _write_with_header(self, tmp_path, extra_lines, mutate_header=None):
        probe = tmp_path / "probe.jsonl"
        CaseBase([make_case("seed")]).save(probe)
        header_line, case_line = probe.read_text().splitlines()
        header = json.loads(header_line)
        if mutate_header:
            mutate_header(header)
        target = tmp_path / "kb.jsonl"
        lines = [json.dumps(header, sort_keys=True)] + list(extra_lines)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return target, case_line

    def test_unsupported_format_version(self, tmp_path):
        for version in (99, True, 1.0):
            target, case_line = self._write_with_header(
                tmp_path, [], lambda h: h.update(format_version=version))
            with pytest.raises(KBError, match="format_version"):
                CaseBase.load(target)

    def test_foreign_feature_manifest(self, tmp_path):
        for mutate in (
            lambda h: h.update(feature_names=["x", "y"]),
            lambda h: h.update(neighbours=7),
            lambda h: h.update(near_match_radius=0.5),
            lambda h: h.update(near_match_weight="10"),
            lambda h: h.pop("neighbours"),
        ):
            target, _ = self._write_with_header(tmp_path, [], mutate)
            with pytest.raises(KBError, match="manifest"):
                CaseBase.load(target)

    def test_wrong_dimension(self, tmp_path):
        for dimension in (7, 25.0):
            target, _ = self._write_with_header(
                tmp_path, [], lambda h: h.update(dimension=dimension))
            with pytest.raises(KBError, match="dimension"):
                CaseBase.load(target)

    def test_invalid_json_reports_the_line(self, tmp_path):
        target, _ = self._write_with_header(tmp_path, ["{not json"])
        with pytest.raises(KBError, match=r":2: invalid JSON"):
            CaseBase.load(target)

    def test_non_case_record_reports_the_line(self, tmp_path):
        target, case_line = self._write_with_header(
            tmp_path, ['{"record_type": "comment"}'])
        with pytest.raises(KBError, match=r":2: expected a case record"):
            CaseBase.load(target)

    @pytest.mark.parametrize("field, value", [
        ("acceptability", 3.0),
        ("acknowledged_without_taking", "false"),
        ("follow_ups", 0.9),
        ("epsilon_m", True),
        ("missed_doses", "0.0"),
        ("wellbeing_utility", True),
        ("case_id", 7),
        ("intention", {"autonomy": 1}),
    ])
    def test_bad_case_field_reports_the_line(self, tmp_path, field, value):
        probe = tmp_path / "probe.jsonl"
        CaseBase([make_case("seed")]).save(probe)
        header_line, case_line = probe.read_text().splitlines()
        record = json.loads(case_line)
        record[field] = value
        target = tmp_path / "kb.jsonl"
        target.write_text(
            header_line + "\n" + json.dumps(record, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(KBError, match=r":2: invalid case record"):
            CaseBase.load(target)

    def test_packaged_base_has_the_header_contract(self, seed_kb):
        assert len(seed_kb) == 114
        ids = [case.case_id for case in seed_kb.cases]
        assert len(set(ids)) == len(ids)

    def test_generator_rebuilds_the_packaged_base_byte_for_byte(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "generate_seed_kb.py"
        spec = importlib.util.spec_from_file_location("generate_seed_kb", script)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        rebuilt = tmp_path / "seed_kb.jsonl"
        generator.build().save(rebuilt)
        assert rebuilt.read_bytes() == (DATA / "seed_kb.jsonl").read_bytes()
