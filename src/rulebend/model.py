"""Core domain model for the medication-reminder governor.

Purpose:
    Defines the value objects shared by every stage of the decision
    pipeline: behaviours the robot can perform, resident instructions,
    the robot's character profile, the per-decision context snapshot,
    and the blackboard the pipeline writes onto.

Semantics:
    Everything here is a plain immutable container.  No module in this
    file computes utilities, applies rules, or consults the case base;
    it only says what the data *is* and which combinations are legal,
    down to how every input file is read: ``read_json_object`` opens a
    file and ``json_field`` / ``json_optional`` take each field with its
    exact JSON kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Any, List, Optional, Tuple

# Value dimensions a decision can promote or damage.  Evaluation code
# iterates them in this order (wellbeing first), so keep it stable.
WELLBEING = "wellbeing"
AUTONOMY = "autonomy"
VALUE_TAGS: Tuple[str, str] = (WELLBEING, AUTONOMY)

#: The character's traits in ``CharacterProfile`` field order (C_w, C_au,
#: C_rp): a value gate reads the trait named by its value tag, a risk
#: gate reads ``RISK_AXIS``.  Every trait lies on [TRAIT_MIN, TRAIT_MAX].
RISK_AXIS = "risk_propensity"
TRAIT_AXES: Tuple[str, str, str] = (WELLBEING, AUTONOMY, RISK_AXIS)
TRAIT_MIN = 0.0
TRAIT_MAX = 10.0

#: The medicine impact classes a scenario, context or case can name.
EPSILON_CLASSES: Tuple[int, ...] = (1, 2, 3)


class ModelError(ValueError):
    """Base class for invalid domain data."""


class ProfileError(ModelError):
    """Raised when a character profile is out of range or ill-formed."""


class ContextError(ModelError):
    """Raised when a decision context violates a structural invariant."""


_REQUIRED = object()
_KIND_NAMES = {bool: "a JSON boolean", int: "a JSON integer", float: "a JSON number",
               str: "a JSON string", dict: "an object"}


def json_field(data: dict, key: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """``data[key]``, which must be a JSON value of exactly ``kind``.

    ``kind`` is ``bool``, ``int``, ``float``, ``str``, ``dict``, an Enum
    (a JSON string naming a member's value) or ``[kind]`` (a JSON array
    of that kind, returned as a tuple).  An int field rejects ``true`` as
    it rejects ``1.9`` and ``"5"``, rather than coercing them; a float
    field takes any JSON number and returns it as a float.  A null is
    checked like any value; only an absent field gives ``default``, as
    it is.  Raises KeyError when a field without a default is missing,
    TypeError on the wrong kind (or when ``data`` is no object) and
    ValueError on a string naming no member or an integer beyond float
    range, for the boundary to report as invalid input.
    """
    try:
        value = data[key]
    except KeyError:
        if default is _REQUIRED:
            raise
        return default
    # Most fields arrive as exactly their kind: answer those without a call.
    if type(value) is kind:
        return value
    return _json_value(value, key, kind)


def _json_value(value: Any, key: str, kind: Any) -> Any:
    """``json_field``'s answer for a value that is not exactly ``kind``."""
    if isinstance(kind, EnumMeta):
        if type(value) is not str:
            raise TypeError(f"{key} must be a JSON string, got {value!r}")
        return kind(value)
    if type(kind) is list:
        if type(value) is not list:
            raise TypeError(f"{key} must be a JSON array, got {value!r}")
        (item,) = kind
        return tuple([v if type(v) is item else _json_value(v, key, item) for v in value])
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{key} is beyond float range") from exc
    raise TypeError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def json_optional(data: dict, key: str, kind: Any) -> Any:
    """``json_field(data, key, kind)``, or None when ``key`` is absent or
    null: the form of a field whose absence means "not given"."""
    return None if data.get(key) is None else json_field(data, key, kind)


def read_json_object(path: Path | str, what: str, error: type) -> dict:
    """The JSON object held by the ``what`` file at ``path``.

    Raises ``error`` when the file is missing, is not JSON or holds
    another JSON value than an object.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if type(data) is not dict:
        raise error(f"{path}: not a {what} file (expected a JSON object)")
    return data


class BehaviourKind(str, Enum):
    """Everything the robot can do about an open medication cycle.

    RESTRAIN is modelled because the autonomy utility assigns it a
    constant, but the candidate filter never proposes it: physically
    forcing the resident is outside this robot's action repertoire.
    """

    REMIND = "remind"
    SNOOZE = "snooze"
    FOLLOW_UP = "follow_up"
    RECORD = "record"
    REPORT = "report"
    ACK_WAIT = "acknowledge_wait"
    RESTRAIN = "restrain"


#: Canonical listing order for logs and blackboard iteration.  Only the
#: six kinds the simulation can actually emit appear here.
SIMULATED_KINDS: Tuple[BehaviourKind, ...] = (
    BehaviourKind.REMIND,
    BehaviourKind.SNOOZE,
    BehaviourKind.FOLLOW_UP,
    BehaviourKind.RECORD,
    BehaviourKind.REPORT,
    BehaviourKind.ACK_WAIT,
)


class Instruction(str, Enum):
    """The two instructions the resident can issue after a reminder."""

    SNOOZE = "snooze"
    ACKNOWLEDGE = "acknowledge"


class ReminderState(str, Enum):
    """How the most recent reminder in the cycle stands.

    ISSUED:       a reminder is out (or due) with no response yet.
    SNOOZED:      the resident asked to snooze it.
    IGNORED:      the resident let it lapse without any response.
    ACKNOWLEDGED: the resident acknowledged it.
    """

    ISSUED = "issued"
    SNOOZED = "snoozed"
    IGNORED = "ignored"
    ACKNOWLEDGED = "acknowledged"


@dataclass(frozen=True)
class Behaviour:
    """A concrete candidate action.

    ``obeys`` tags the action as carrying out a resident instruction
    (the snooze that grants a SNOOZE, the wait-and-inspect that grants
    an ACKNOWLEDGE).  Unprompted actions leave it None.
    """

    kind: BehaviourKind
    obeys: Optional[Instruction] = None

    def __str__(self) -> str:  # compact form for logs and timelines
        return self.kind.value


@dataclass(frozen=True)
class GammaSpec:
    """Parameters of a shifted wellbeing-outcome density."""

    shape: float
    scale: float
    shift: float = -1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.shape, self.scale, self.shift)):
            raise ModelError(
                f"gamma spec needs finite parameters, got shape={self.shape!r} "
                f"scale={self.scale!r} shift={self.shift!r}"
            )
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ModelError(
                f"gamma spec needs positive shape/scale, got "
                f"shape={self.shape!r} scale={self.scale!r}"
            )


@dataclass(frozen=True)
class CharacterProfile:
    """The tunable character: value preferences plus risk propensity.

    All three weights live on the closed lattice [0, 10]; a profile out
    of range cannot be made (see ``validate_profile``).
    """

    name: str
    wellbeing: float              # preference weight for resident wellbeing
    autonomy: float               # preference weight for resident autonomy
    risk_propensity: float        # appetite for risky outcomes

    def __post_init__(self) -> None:
        validate_profile(self)


def validate_profile(profile: CharacterProfile) -> None:
    """Raise ProfileError unless every field is in range.

    Requires: nothing.
    Ensures:  returns None only when name is non-empty and each weight
              is a number in [TRAIT_MIN, TRAIT_MAX] (never NaN or a bool).
    """
    if not isinstance(profile, CharacterProfile):
        raise ProfileError(f"not a CharacterProfile: {profile!r}")
    if not profile.name:
        raise ProfileError("profile name must be non-empty")
    for axis in TRAIT_AXES:
        value = getattr(profile, axis)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProfileError(f"{axis} must be numeric, got {value!r}")
        if not (TRAIT_MIN <= value <= TRAIT_MAX):
            raise ProfileError(f"{axis}={value!r} outside [{TRAIT_MIN:g}, {TRAIT_MAX:g}]")


@dataclass(frozen=True)
class DecisionContext:
    """Snapshot of the situation at one robot decision point.

    ``follow_ups`` counts follow-up reminders issued *before* this
    decision.  ``snoozes_granted`` counts snoozes the robot has granted
    in the cycle so far; the situation risk density is parameterised by
    it.  ``instruction_pending`` is true only in the window between the
    resident issuing an instruction and the robot answering it, which is
    what the obedience rule keys on.  ``snooze_remaining`` is nonzero
    only while a granted snooze window is still running.
    """

    epsilon_m: int                          # medicine impact class, 1..3
    missed_doses: float                     # doses already missed coming in
    follow_ups: int                         # follow-ups issued before now
    reminder_state: ReminderState
    last_instruction: Optional[Instruction]
    instruction_pending: bool
    acknowledged_without_taking: bool
    snoozes_granted: int
    snooze_remaining: int
    step: int

    def __post_init__(self) -> None:
        if self.epsilon_m not in EPSILON_CLASSES:
            raise ContextError(f"epsilon_m must be 1..3, got {self.epsilon_m!r}")
        if not math.isfinite(self.missed_doses):
            raise ContextError(f"missed_doses must be finite, got {self.missed_doses!r}")
        if self.missed_doses < 0:
            raise ContextError("missed_doses cannot be negative")
        if self.follow_ups < 0 or self.snoozes_granted < 0:
            raise ContextError("counters cannot be negative")
        if self.snooze_remaining < 0:
            raise ContextError("snooze_remaining cannot be negative")
        if self.step < 0:
            raise ContextError("step cannot be negative")
        if self.acknowledged_without_taking:
            if self.last_instruction is not Instruction.ACKNOWLEDGE:
                raise ContextError(
                    "acknowledged_without_taking requires the last "
                    "instruction to be ACKNOWLEDGE"
                )
        if self.instruction_pending and self.last_instruction is None:
            raise ContextError("a pending instruction must name an instruction")


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of checking one behaviour against the rule book."""

    permissible: bool
    violated_rule_ids: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.permissible != (len(self.violated_rule_ids) == 0):
            raise ModelError("permissible iff no violated rule ids")
        if list(self.violated_rule_ids) != sorted(set(self.violated_rule_ids)):
            raise ModelError("violated rule ids must be ascending and unique")


@dataclass
class BlackboardEntry:
    """Everything the pipeline learned about one candidate behaviour.

    ``opinion`` and ``evaluation`` are a ``casekb.CaseOpinion`` and an
    ``evaluator.EvaluationResult``; the governor fills every field at once.
    """

    behaviour: Behaviour
    verdict: RuleVerdict
    autonomy_utility: float
    wellbeing_utility: float
    wellbeing_spec: GammaSpec
    opinion: Any
    evaluation: Any


@dataclass
class Blackboard:
    """Shared per-decision store, one entry per candidate behaviour.

    Entries keep the order in which candidates were posted, which the
    governor fixes to the canonical behaviour order.
    """

    profile: CharacterProfile
    entries: List[BlackboardEntry] = field(default_factory=list)

    def post(self, entry: BlackboardEntry) -> None:
        if any(e.behaviour == entry.behaviour for e in self.entries):
            raise ModelError(f"duplicate blackboard entry for {entry.behaviour}")
        self.entries.append(entry)
