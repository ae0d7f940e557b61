"""Episode runner: timing, logging, classification, scenario files."""

import json
import math

import pytest

from rulebend.model import Instruction, ModelError
from rulebend.sim import (
    FIRST_SYNTHETIC_ID,
    KNOWN_SIGNATURES,
    MAX_STEPS,
    SNOOZE_WINDOW,
    EpisodeLog,
    ResidentConfig,
    RobotState,
    Scenario,
    ScenarioError,
    SignatureRegistry,
    Terminal,
    behaviour_id,
    run_episode,
)

from conftest import DATA


@pytest.fixture(scope="module")
def episode_c1_a(seed_kb, profiles):
    scenario = Scenario.from_file(DATA / "scenarios" / "case1.json")
    return run_episode(scenario, profiles["A"], seed_kb)


def decisions(log):
    return {r["step"]: r["decision"] for r in log.steps if r["decision"]}


# ----------------------------------------------------------------------
# the alternating resident, cautious character: the full four-breach day
# ----------------------------------------------------------------------


class TestAlternatingEpisode:
    def test_decisions_happen_exactly_when_timers_allow(self, episode_c1_a):
        assert sorted(decisions(episode_c1_a)) == [
            1, 2, 6, 7, 10, 11, 15, 16, 19, 20, 24, 25, 28, 29
        ]

    def test_action_track(self, episode_c1_a):
        actions = {r["step"]: r["robot_action"] for r in episode_c1_a.steps
                   if r["robot_action"]}
        assert actions == {
            1: "remind",
            2: "snooze", 11: "snooze", 20: "snooze", 29: "snooze",
            7: "acknowledge_wait", 16: "acknowledge_wait", 25: "acknowledge_wait",
            6: "follow_up", 10: "follow_up", 15: "follow_up",
            19: "follow_up", 24: "follow_up", 28: "follow_up",
        }

    def test_waiting_track(self, episode_c1_a):
        waiting = {r["step"]: r["waiting"] for r in episode_c1_a.steps
                   if r["waiting"]}
        snoozing = [s for s, w in waiting.items() if w == "snoozing"]
        inspecting = [s for s, w in waiting.items() if w == "inspecting"]
        assert snoozing == [3, 4, 5, 12, 13, 14, 21, 22, 23]
        assert inspecting == [8, 9, 17, 18, 26, 27]

    def test_resident_track(self, episode_c1_a):
        resident = {r["step"]: r["resident"] for r in episode_c1_a.steps
                    if r["resident"]}
        assert resident == {
            2: "snooze", 11: "snooze", 20: "snooze", 29: "snooze",
            7: "acknowledge", 16: "acknowledge", 25: "acknowledge",
        }

    def test_ends_at_the_horizon(self, episode_c1_a):
        assert episode_c1_a.terminal is Terminal.HORIZON_REACHED
        assert episode_c1_a.terminal_step == MAX_STEPS == 29
        assert behaviour_id(episode_c1_a) == 1

    def test_candidates_expand_only_at_escalation_points(self, episode_c1_a):
        expanded = {step for step, d in decisions(episode_c1_a).items()
                    if d["expanded"]}
        assert expanded == {10, 19, 24, 28}
        for step, d in decisions(episode_c1_a).items():
            size = len(d["candidates"])
            assert size == (3 if step in expanded else 1)

    def test_breach_flags_and_snooze_counts(self, episode_c1_a):
        ds = decisions(episode_c1_a)
        flags = {
            step: ds[step]["context"]["acknowledged_without_taking"]
            for step in (10, 19, 24, 28)
        }
        assert flags == {10: True, 19: True, 24: False, 28: True}
        snoozes = {
            step: ds[step]["context"]["snoozes_granted"]
            for step in (10, 19, 24, 28)
        }
        assert snoozes == {10: 1, 19: 2, 24: 3, 28: 3}
        follow_ups = {
            step: ds[step]["context"]["follow_ups"]
            for step in (10, 19, 24, 28)
        }
        assert follow_ups == {10: 1, 19: 3, 24: 4, 28: 5}


# ----------------------------------------------------------------------
# other resident scripts
# ----------------------------------------------------------------------


def test_taking_the_medication_ends_the_episode(seed_kb, profiles):
    scenario = Scenario(
        name="takes",
        epsilon_m=1,
        missed_doses=0.0,
        resident=ResidentConfig(
            responses=(Instruction.ACKNOWLEDGE,), takes_medication=True
        ),
    )
    log = run_episode(scenario, profiles["A"], seed_kb)
    assert log.terminal is Terminal.MEDICATION_TAKEN
    assert log.terminal_step == 5
    last = log.steps[-1]
    assert last["step"] == 5
    assert last["robot_action"] == "observe_medication_taken"
    assert last["decision"] is None  # observation, not a governor call
    assert behaviour_id(log) == FIRST_SYNTHETIC_ID


def test_endless_snoozing_exhausts_patience_at_step_21(seed_kb, profiles):
    scenario = Scenario(
        name="stall",
        epsilon_m=1,
        missed_doses=0.0,
        resident=ResidentConfig(responses=(Instruction.SNOOZE,)),
    )
    log = run_episode(scenario, profiles["A"], seed_kb)
    expanded = [(step, d) for step, d in sorted(decisions(log).items())
                if d["expanded"]]
    assert expanded, "patience never ran out"
    first_step, first = expanded[0]
    assert first_step == 21
    assert first["context"]["follow_ups"] == 3
    assert len(first["candidates"]) == 3


# ----------------------------------------------------------------------
# the log artefact
# ----------------------------------------------------------------------


def test_identical_runs_serialize_identically(seed_kb, profiles):
    scenario = Scenario.from_file(DATA / "scenarios" / "case1.json")
    first = run_episode(scenario, profiles["ARW"], seed_kb).to_jsonl()
    second = run_episode(scenario, profiles["ARW"], seed_kb).to_jsonl()
    assert first == second


def test_jsonl_layout(episode_c1_a):
    lines = episode_c1_a.to_jsonl().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["record_type"] == "meta"
    assert records[0]["scenario"] == "case1"
    assert records[0]["profile"] == "A"
    assert records[0]["risk_mode"] == "literal"
    assert all(r["record_type"] == "step" for r in records[1:-1])
    summary = records[-1]
    assert summary["record_type"] == "summary"
    assert summary["terminal"] == "horizon_reached"
    assert summary["escalation_choices"] == [
        [10, "follow_up"], [19, "follow_up"],
        [24, "follow_up"], [28, "follow_up"],
    ]
    assert summary["fallback_steps"] == []


def test_robot_state_check_raises_a_model_error():
    robot = RobotState(cycle_d=0.0)
    robot.check()
    robot.snooze_timer = SNOOZE_WINDOW + 1
    with pytest.raises(ModelError, match="robot state out of range"):
        robot.check()


def test_log_rejects_non_increasing_steps():
    log = EpisodeLog(meta={})
    log.append({"step": 3})
    with pytest.raises(ModelError):
        log.append({"step": 3})
    with pytest.raises(ModelError):
        log.append({"step": 2})


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


def synthetic_log(*choices, terminal=Terminal.REPORTED, fallbacks=()):
    log = EpisodeLog(meta={})
    for step, recommended in choices:
        log.append({
            "step": step,
            "decision": {
                "expanded": True,
                "recommended": recommended,
                "fallback": step in fallbacks,
            },
        })
    log.terminal = terminal
    log.terminal_step = choices[-1][0] if choices else MAX_STEPS
    return log


def test_the_seven_canonical_classes_are_distinct():
    assert sorted(KNOWN_SIGNATURES.values()) == [1, 2, 3, 4, 5, 6, 7]


def test_recommended_versus_forced_reports_are_different_classes():
    recommended = synthetic_log((10, "follow_up"), (19, "report"))
    forced = synthetic_log((10, "follow_up"), (19, "report"), fallbacks=(19,))
    assert behaviour_id(recommended) == 3
    assert behaviour_id(forced) == 5


def test_unknown_signatures_default_to_the_first_synthetic_id():
    odd = synthetic_log((10, "record"), terminal=Terminal.HORIZON_REACHED)
    other = synthetic_log((13, "report"))
    assert behaviour_id(odd) == FIRST_SYNTHETIC_ID
    assert behaviour_id(other) == FIRST_SYNTHETIC_ID


def test_registry_keeps_synthetic_ids_stable():
    registry = SignatureRegistry()
    odd = synthetic_log((10, "record"), terminal=Terminal.HORIZON_REACHED)
    other = synthetic_log((13, "report"))
    assert behaviour_id(odd, registry) == 8
    assert behaviour_id(other, registry) == 9
    assert behaviour_id(odd, registry) == 8
    assert behaviour_id(other, registry) == 9


# ----------------------------------------------------------------------
# scenario files
# ----------------------------------------------------------------------


class TestScenarioIO:
    def test_packaged_scenarios_load(self, scenario):
        for n, name in enumerate(
            ("case1", "case2", "case3", "case4", "case5", "case6"), start=1
        ):
            loaded = scenario(name)
            assert loaded.name == name
            assert loaded.epsilon_m == ((n - 1) % 3) + 1
            assert loaded.missed_doses == (0.0 if n <= 3 else 2.0)
            assert loaded.max_steps == MAX_STEPS

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            Scenario.from_file(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            Scenario.from_file(bad)

    def test_unsupported_format_version(self, tmp_path):
        bad = tmp_path / "v9.json"
        for version in (9, True, 1.0):
            bad.write_text(json.dumps({
                "format_version": version, "name": "x", "epsilon_m": 1,
                "missed_doses": 0.0,
            }), encoding="utf-8")
            with pytest.raises(ScenarioError, match="format_version"):
                Scenario.from_file(bad)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({
                "format_version": 1, "name": "x", "epsilon_m": 7,
                "missed_doses": 0.0,
            })

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"format_version": 1, "name": "x"})

    def test_resident_needs_at_least_one_response(self):
        with pytest.raises(ScenarioError):
            ResidentConfig(responses=())

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_missed_doses_rejected(self, value):
        with pytest.raises(ScenarioError, match="missed_doses must be finite"):
            Scenario.from_dict({
                "format_version": 1, "name": "x", "epsilon_m": 1,
                "missed_doses": value,
            })

    @pytest.mark.parametrize("value", [[], "snooze", 3])
    def test_non_object_resident_rejected(self, value):
        with pytest.raises(ScenarioError, match="resident must be an object"):
            Scenario.from_dict({
                "format_version": 1, "name": "x", "epsilon_m": 1,
                "missed_doses": 0.0, "resident": value,
            })

    def test_non_object_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict([1, 2, 3])

    @pytest.mark.parametrize("field,value,message", [
        ("takes_medication", "false", "takes_medication must be a JSON boolean"),
        ("takes_medication", 0, "takes_medication must be a JSON boolean"),
        ("takes_medication", None, "takes_medication must be a JSON boolean"),
        ("epsilon_m", 1.9, "epsilon_m must be a JSON integer"),
        ("epsilon_m", True, "epsilon_m must be a JSON integer"),
        ("epsilon_m", "1", "epsilon_m must be a JSON integer"),
        ("epsilon_m", 1.0, "epsilon_m must be a JSON integer"),
        ("max_steps", 1.9, "max_steps must be a JSON integer"),
        ("max_steps", True, "max_steps must be a JSON integer"),
        ("max_steps", "5", "max_steps must be a JSON integer"),
        ("max_steps", 0, r"max_steps must be in 1\.\.29"),
        ("max_steps", MAX_STEPS + 1, r"max_steps must be in 1\.\.29"),
    ])
    def test_fields_must_have_their_json_type_and_range(self, field, value, message):
        spec = {"format_version": 1, "name": "x", "epsilon_m": 1,
                "missed_doses": 0.0, "resident": {"takes_medication": False}}
        target = spec["resident"] if field == "takes_medication" else spec
        target[field] = value
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(spec)

    @pytest.mark.parametrize("value", [1, MAX_STEPS])
    def test_max_steps_accepts_the_horizon_ends(self, value):
        loaded = Scenario.from_dict({
            "format_version": 1, "name": "x", "epsilon_m": 1,
            "missed_doses": 0.0, "max_steps": value,
        })
        assert loaded.max_steps == value
