"""Discrete-step world: scripted resident, robot with timers, episode runner.

One step runs the resident first (responding to the reminder issued the
step before), then the robot.  The robot only queries the governor when
a decision is due: at cycle start, when an instruction is pending, and
when a snooze window or inspection runs out.  While a timer is running
the robot just waits, so a granted snooze blocks decisions for exactly
SNOOZE_WINDOW steps and an acknowledged reminder is inspected for
exactly INSPECT_WINDOW steps before the breach decision.

Episodes are classified into behaviour classes by signature: what the
robot chose at each escalation decision (where the candidate set was
expanded), how the episode ended, and at which of those decisions the
governor had to fall back because nothing was desirable.  The fallback
component is part of the signature because two classes can share the
identical action sequence and differ only in whether the report was
recommended or forced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .casekb import CaseBase
from .governor import AssessmentTable, arbitrate, decide
from .model import (
    Behaviour,
    BehaviourKind,
    CharacterProfile,
    DecisionContext,
    Instruction,
    ModelError,
    ReminderState,
    json_field,
    read_json_object,
)

SNOOZE_WINDOW = 3          # steps a granted snooze suspends the cycle
INSPECT_WINDOW = 2         # steps spent checking whether the dose was taken
MAX_STEPS = 29             # hard episode horizon

SCENARIO_FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Raised for invalid scenario definitions."""


class Phase(str, Enum):
    IDLE = "idle"
    REMINDED = "reminded"
    SNOOZING = "snoozing"
    INSPECTING = "inspecting"
    ESCALATED = "escalated"
    CYCLE_CLOSED = "cycle_closed"


class Terminal(str, Enum):
    MEDICATION_TAKEN = "medication_taken"
    RECORDED = "recorded"
    REPORTED = "reported"
    HORIZON_REACHED = "horizon_reached"


@dataclass(frozen=True)
class ResidentConfig:
    """Scripted response policy: the i-th reminder gets responses[i % n]."""

    responses: Tuple[Instruction, ...] = (Instruction.SNOOZE, Instruction.ACKNOWLEDGE)
    takes_medication: bool = False

    def __post_init__(self) -> None:
        if not self.responses:
            raise ScenarioError("resident policy needs at least one response")


@dataclass(frozen=True)
class Scenario:
    name: str
    epsilon_m: int
    missed_doses: float
    resident: ResidentConfig = ResidentConfig()
    max_steps: int = MAX_STEPS

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.epsilon_m not in (1, 2, 3):
            raise ScenarioError(f"epsilon_m must be 1..3, got {self.epsilon_m!r}")
        if not math.isfinite(self.missed_doses):
            raise ScenarioError(f"missed_doses must be finite, got {self.missed_doses!r}")
        if self.missed_doses < 0:
            raise ScenarioError("missed_doses cannot be negative")
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ScenarioError(
                f"max_steps must be in 1..{MAX_STEPS}, got {self.max_steps!r}"
            )

    @classmethod
    def from_file(cls, path: Path | str) -> "Scenario":
        data = read_json_object(path, "scenario", ScenarioError)
        return cls.from_dict(data, source=str(path))

    @classmethod
    def from_dict(cls, data: dict, source: str = "<dict>") -> "Scenario":
        try:
            version = json_field(data, "format_version", int)
            if version != SCENARIO_FORMAT_VERSION:
                raise ValueError(f"unsupported format_version {version!r}")
            resident = json_field(data, "resident", dict, {})
            return cls(
                name=json_field(data, "name", str),
                epsilon_m=json_field(data, "epsilon_m", int),
                missed_doses=json_field(data, "missed_doses", float),
                resident=ResidentConfig(
                    # an absent field keeps the dataclass default
                    responses=json_field(
                        resident, "responses", [Instruction], ResidentConfig.responses
                    ),
                    takes_medication=json_field(resident, "takes_medication", bool, False),
                ),
                max_steps=json_field(data, "max_steps", int, MAX_STEPS),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ScenarioError(f"{source}: invalid scenario ({exc})") from exc


class Resident:
    """Executes the scripted response policy, one step after a reminder."""

    def __init__(self, config: ResidentConfig):
        self.config = config
        self.responses_given = 0
        self.reminder_pending = False
        self.took_medication = False

    def notify(self) -> None:
        self.reminder_pending = True

    def respond(self) -> Instruction:
        instruction = self.config.responses[
            self.responses_given % len(self.config.responses)
        ]
        self.responses_given += 1
        self.reminder_pending = False
        if instruction is Instruction.ACKNOWLEDGE and self.config.takes_medication:
            self.took_medication = True
        return instruction


class RobotState:
    """Mutable per-episode robot bookkeeping."""

    def __init__(self, cycle_d: float):
        self.snooze_timer = 0
        self.inspect_timer = 0
        self.follow_ups = 0
        self.cycle_d = cycle_d
        self.phase = Phase.IDLE
        self.snoozes_granted = 0
        self.reminder_state = ReminderState.ISSUED
        self.last_instruction: Optional[Instruction] = None
        self.instruction_pending = False
        self.acknowledged_without_taking = False

    def check(self) -> None:
        if not (
            0 <= self.snooze_timer <= SNOOZE_WINDOW
            and 0 <= self.inspect_timer <= INSPECT_WINDOW
            and self.follow_ups >= 0
        ):
            raise ModelError(
                f"robot state out of range: snooze_timer={self.snooze_timer}, "
                f"inspect_timer={self.inspect_timer}, follow_ups={self.follow_ups}"
            )


class EpisodeLog:
    """Step records plus the episode summary."""

    def __init__(self, meta: Dict[str, object]):
        self.meta = meta
        self.steps: List[Dict[str, object]] = []
        self.terminal: Optional[Terminal] = None
        self.terminal_step: Optional[int] = None

    def append(self, record: Dict[str, object]) -> None:
        if self.steps and record["step"] <= self.steps[-1]["step"]:
            raise ModelError("step indices must be strictly increasing")
        self.steps.append(record)

    def signature(self) -> Tuple[Tuple[Tuple[int, str], ...], str, Tuple[int, ...]]:
        """(escalation choices, terminal, fallback steps) — see module doc."""
        escalations: List[Tuple[int, str]] = []
        fallback_steps: List[int] = []
        for record in self.steps:
            decision = record.get("decision")
            if not decision:
                continue
            if decision["expanded"]:
                escalations.append((record["step"], decision["recommended"]))
            if decision["fallback"]:
                fallback_steps.append(record["step"])
        terminal = self.terminal.value if self.terminal else ""
        return tuple(escalations), terminal, tuple(fallback_steps)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"record_type": "meta", **self.meta}, sort_keys=True
            )
        ]
        for record in self.steps:
            lines.append(
                json.dumps({"record_type": "step", **record}, sort_keys=True)
            )
        escalations, terminal, fallback_steps = self.signature()
        lines.append(
            json.dumps(
                {
                    "record_type": "summary",
                    "terminal": terminal,
                    "terminal_step": self.terminal_step,
                    "escalation_choices": [list(e) for e in escalations],
                    "fallback_steps": list(fallback_steps),
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def _spec_dict(spec) -> Dict[str, float]:
    return {"shape": spec.shape, "scale": spec.scale, "shift": spec.shift}


def _decision_record(ctx: DecisionContext, recommendation, chosen: Behaviour) -> dict:
    entries = []
    for entry in recommendation.blackboard.entries:
        ev = entry.evaluation
        op = entry.opinion
        entries.append(
            {
                "behaviour": entry.behaviour.kind.value,
                "obeys": entry.behaviour.obeys.value if entry.behaviour.obeys else None,
                "rule_permissible": entry.verdict.permissible,
                "violated_rules": list(entry.verdict.violated_rule_ids),
                "autonomy_utility": entry.autonomy_utility,
                "wellbeing_utility": entry.wellbeing_utility,
                "wellbeing_spec": _spec_dict(entry.wellbeing_spec),
                "opinion": {
                    "acceptable": op.acceptable,
                    "score": op.score,
                    "intentions": sorted(op.intentions),
                    "trace": [
                        {
                            "case_id": t.case_id,
                            "distance": t.distance,
                            "weight": t.weight,
                            "acceptability": t.acceptability,
                            "intention": list(t.intention),
                        }
                        for t in op.trace
                    ],
                },
                "risk": ev.risk,
                "risk_mode": ev.risk_mode,
                "risk_spec": _spec_dict(ev.risk_spec),
                "desirability": ev.desirability,
                "branch": ev.branch.value,
                "template_id": ev.template_id,
                "explanation": ev.explanation,
            }
        )
    return {
        "context": {
            "epsilon_m": ctx.epsilon_m,
            "missed_doses": ctx.missed_doses,
            "follow_ups": ctx.follow_ups,
            "reminder_state": ctx.reminder_state.value,
            "last_instruction": ctx.last_instruction.value
            if ctx.last_instruction
            else None,
            "instruction_pending": ctx.instruction_pending,
            "acknowledged_without_taking": ctx.acknowledged_without_taking,
            "snoozes_granted": ctx.snoozes_granted,
            "snooze_remaining": ctx.snooze_remaining,
            "step": ctx.step,
        },
        "candidates": [e.behaviour.kind.value for e in recommendation.blackboard.entries],
        "expanded": len(recommendation.blackboard.entries) > 1,
        "desirable": [b.kind.value for b in recommendation.desirable],
        "fallback": recommendation.is_fallback(),
        "recommended": chosen.kind.value,
        "profile": recommendation.blackboard.profile.name,
        "entries": entries,
    }


def run_episode(
    scenario: Scenario,
    profile: CharacterProfile,
    kb: CaseBase,
    risk_mode: str = "literal",
    assessments: Optional[AssessmentTable] = None,
) -> EpisodeLog:
    """Run one deterministic episode and return its full log.

    ``assessments`` is passed to every ``decide``: a command running
    many episodes on one case base may share one table across them.
    """
    resident = Resident(scenario.resident)
    robot = RobotState(cycle_d=scenario.missed_doses)
    log = EpisodeLog(
        meta={
            "scenario": scenario.name,
            "epsilon_m": scenario.epsilon_m,
            "missed_doses": scenario.missed_doses,
            "profile": profile.name,
            "risk_mode": risk_mode,
            "max_steps": scenario.max_steps,
            "resident_responses": [r.value for r in scenario.resident.responses],
            "resident_takes_medication": scenario.resident.takes_medication,
        }
    )

    for step in range(1, scenario.max_steps + 1):
        record: Dict[str, object] = {
            "step": step,
            "resident": None,
            "robot_action": None,
            "waiting": None,
            "decision": None,
        }

        # -- resident moves first, answering last step's reminder --------
        if resident.reminder_pending:
            instruction = resident.respond()
            record["resident"] = instruction.value
            robot.last_instruction = instruction
            robot.instruction_pending = True
            robot.reminder_state = (
                ReminderState.SNOOZED
                if instruction is Instruction.SNOOZE
                else ReminderState.ACKNOWLEDGED
            )

        # -- robot: wait on a running timer, or take a decision ----------
        decision_due = False
        if robot.instruction_pending:
            decision_due = True
        elif robot.phase is Phase.IDLE:
            decision_due = True
        elif robot.phase is Phase.SNOOZING:
            if robot.snooze_timer > 0:
                robot.snooze_timer -= 1
                record["waiting"] = "snoozing"
            else:
                decision_due = True
        elif robot.phase is Phase.INSPECTING:
            if robot.inspect_timer > 0:
                robot.inspect_timer -= 1
                record["waiting"] = "inspecting"
            elif resident.took_medication:
                robot.phase = Phase.CYCLE_CLOSED
                log.terminal = Terminal.MEDICATION_TAKEN
                log.terminal_step = step
                record["robot_action"] = "observe_medication_taken"
                record["phase"] = robot.phase.value
                log.append(record)
                break
            else:
                robot.acknowledged_without_taking = True
                decision_due = True

        if decision_due:
            ctx = DecisionContext(
                epsilon_m=scenario.epsilon_m,
                missed_doses=robot.cycle_d,
                follow_ups=robot.follow_ups,
                reminder_state=robot.reminder_state,
                last_instruction=robot.last_instruction,
                instruction_pending=robot.instruction_pending,
                acknowledged_without_taking=robot.acknowledged_without_taking,
                snoozes_granted=robot.snoozes_granted,
                snooze_remaining=robot.snooze_timer
                if robot.phase is Phase.SNOOZING
                else 0,
                step=step,
            )
            recommendation = decide(
                ctx, profile, kb, risk_mode=risk_mode, assessments=assessments
            )
            chosen = arbitrate(
                recommendation,
                ctx.last_instruction if ctx.instruction_pending else None,
            )
            record["decision"] = _decision_record(ctx, recommendation, chosen)
            record["robot_action"] = chosen.kind.value
            _apply(robot, resident, chosen, log, step)

        record["phase"] = robot.phase.value
        robot.check()
        log.append(record)
        if log.terminal is not None:
            break

    if log.terminal is None:
        log.terminal = Terminal.HORIZON_REACHED
        log.terminal_step = scenario.max_steps
    return log


def _apply(
    robot: RobotState,
    resident: Resident,
    chosen: Behaviour,
    log: EpisodeLog,
    step: int,
) -> None:
    kind = chosen.kind
    if kind is BehaviourKind.REMIND:
        robot.reminder_state = ReminderState.ISSUED
        resident.notify()
        robot.phase = Phase.REMINDED
    elif kind is BehaviourKind.SNOOZE:
        robot.instruction_pending = False
        robot.snoozes_granted += 1
        robot.snooze_timer = SNOOZE_WINDOW
        robot.phase = Phase.SNOOZING
    elif kind is BehaviourKind.ACK_WAIT:
        robot.instruction_pending = False
        robot.inspect_timer = INSPECT_WINDOW
        robot.phase = Phase.INSPECTING
    elif kind is BehaviourKind.FOLLOW_UP:
        robot.follow_ups += 1
        robot.acknowledged_without_taking = False
        robot.reminder_state = ReminderState.ISSUED
        resident.notify()
        robot.phase = Phase.REMINDED
    elif kind is BehaviourKind.RECORD:
        robot.phase = Phase.CYCLE_CLOSED
        log.terminal = Terminal.RECORDED
        log.terminal_step = step
    elif kind is BehaviourKind.REPORT:
        robot.phase = Phase.ESCALATED
        log.terminal = Terminal.REPORTED
        log.terminal_step = step
    else:
        raise ModelError(f"simulation cannot execute behaviour {kind!r}")


# ----------------------------------------------------------------------
# Behaviour classification
# ----------------------------------------------------------------------
# The canonical classes.  Reading: at each escalation decision (expanded
# candidate set) the chosen action, then how the episode ended, then the
# decisions where the recommendation was a fallback.

_FU = BehaviourKind.FOLLOW_UP.value
_REC = BehaviourKind.RECORD.value
_REP = BehaviourKind.REPORT.value

KNOWN_SIGNATURES: Dict[Tuple, int] = {
    (
        ((10, _FU), (19, _FU), (24, _FU), (28, _FU)),
        Terminal.HORIZON_REACHED.value,
        (),
    ): 1,
    (((10, _FU), (19, _REC)), Terminal.RECORDED.value, ()): 2,
    (((10, _FU), (19, _REP)), Terminal.REPORTED.value, ()): 3,
    (
        ((10, _FU), (19, _FU), (24, _FU), (28, _REP)),
        Terminal.REPORTED.value,
        (28,),
    ): 4,
    (((10, _FU), (19, _REP)), Terminal.REPORTED.value, (19,)): 5,
    (((10, _REP),), Terminal.REPORTED.value, ()): 6,
    (((10, _REC),), Terminal.RECORDED.value, ()): 7,
}

FIRST_SYNTHETIC_ID = 8


class SignatureRegistry:
    """Assigns stable synthetic ids to signatures outside the canon."""

    def __init__(self) -> None:
        self._assigned: Dict[Tuple, int] = {}

    def id_for(self, signature: Tuple) -> int:
        if signature in self._assigned:
            return self._assigned[signature]
        synthetic = FIRST_SYNTHETIC_ID + len(self._assigned)
        self._assigned[signature] = synthetic
        return synthetic


def class_id(signature: Tuple, registry: Optional[SignatureRegistry] = None) -> int:
    """The behaviour class of an episode signature.

    Known signatures map to their canonical id 1..7; anything else gets
    a synthetic id >= 8 — stable within the given registry, or always 8
    when no registry is shared across calls.
    """
    known = KNOWN_SIGNATURES.get(signature)
    if known is not None:
        return known
    if registry is None:
        return FIRST_SYNTHETIC_ID
    return registry.id_for(signature)


def behaviour_id(log: EpisodeLog, registry: Optional[SignatureRegistry] = None) -> int:
    """Classify a finished episode into a behaviour class (see ``class_id``)."""
    return class_id(log.signature(), registry)
