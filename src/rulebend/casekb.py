"""Case knowledge base: reviewed precedent decisions and KNN lookup.

A case records one reviewed stance: in a situation with these features,
this behaviour was (un)acceptable, and the judgement was oriented toward
this value dimension.  Queries are answered by the K nearest cases under
a normalized euclidean distance; near-exact matches dominate through a
step-up weight.

The feature layout is versioned.  Categorical fields are one-hot so a
single category flip always costs the same distance regardless of how
the category values happen to be numbered; the two utilities enter as
plain scalars.  The distance divides by sqrt(dimension), keeping any
single-coordinate difference within [0, ~0.28] and the 0.1 near-match
radius meaningful.

Retrieval never evaluates ``distance`` coordinate by coordinate.  Every
coordinate but the two utilities is 0 or 1, so a vector splits into a
categorical *block*, held as an int bitmask, and two utilities.  Each
categorical term (a - b)**2 is exactly 0 or 1, and the number of ones is
the popcount of the two masks' XOR, ``m``.  ``fsum`` rounds the exact sum
of its terms once, so ``fsum((m, du**2, dw**2))`` equals ``fsum`` over all
the coordinates bit for bit, and retrieval returns the same distances as
``distance``.  Cases are grouped by block once, when the base is built;
a query visits the groups in ascending ``m`` and stops when
``sqrt(m) / sqrt(dimension)`` exceeds the k-th best distance found so
far.  That bound is exact: the sum is at least ``m`` and ``sqrt`` and the
division round monotonically, so no unvisited case can come closer.  The
comparison is strict, so a case tying the k-th distance is still seen
and ties keep breaking by case id.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .model import (
    Behaviour,
    BehaviourKind,
    DecisionContext,
    ReminderState,
    RuleVerdict,
    SIMULATED_KINDS,
    VALUE_TAGS,
    json_field,
)

FORMAT_VERSION = 1

#: Number of neighbours consulted unless the caller overrides it.
DEFAULT_NEIGHBOURS = 3

#: Distance at or below which a case counts as a near-exact precedent.
NEAR_MATCH_RADIUS = 0.1

#: Weight given to near-exact precedents; farther cases weigh 1/distance.
NEAR_MATCH_WEIGHT = 10.0

_EPSILON_CLASSES = (1, 2, 3)
_MISSED_BUCKETS = ("0", "1", "2", "3", "4plus")
_FOLLOW_UP_BUCKETS = ("0", "1", "2", "3plus")
_STATES = tuple(state.value for state in ReminderState)

FEATURE_NAMES: Tuple[str, ...] = (
    tuple(f"epsilon_{e}" for e in _EPSILON_CLASSES)
    + tuple(f"missed_{b}" for b in _MISSED_BUCKETS)
    + tuple(f"follow_ups_{b}" for b in _FOLLOW_UP_BUCKETS)
    + tuple(f"state_{s}" for s in _STATES)
    + ("acknowledged_without_taking",)
    + tuple(f"behaviour_{k.value}" for k in SIMULATED_KINDS)
    + ("autonomy_utility", "wellbeing_utility")
)

DIMENSION = len(FEATURE_NAMES)
_DISTANCE_DIVISOR = math.sqrt(DIMENSION)

#: Coordinates before the two trailing utilities; each is 0.0 or 1.0.
_CATEGORICAL = DIMENSION - 2


class KBError(Exception):
    """Raised for malformed case-base files or queries."""


def _missed_bucket(missed_doses: float) -> int:
    if missed_doses < 0:
        raise KBError(f"missed_doses cannot be negative: {missed_doses!r}")
    return min(int(missed_doses), 4)


def _follow_up_bucket(follow_ups: int) -> int:
    if follow_ups < 0:
        raise KBError(f"follow_ups cannot be negative: {follow_ups!r}")
    return min(follow_ups, 3)


def feature_vector(
    epsilon_m: int,
    missed_doses: float,
    follow_ups: int,
    reminder_state: ReminderState,
    acknowledged_without_taking: bool,
    behaviour: BehaviourKind,
    autonomy_utility: float,
    wellbeing_utility: float,
) -> Tuple[float, ...]:
    """Encode one (situation, behaviour, utilities) point.

    Requires: epsilon_m in {1,2,3}; behaviour one of SIMULATED_KINDS
              (restraint is never proposed, so never judged).
    Ensures:  a DIMENSION-long tuple matching FEATURE_NAMES.
    """
    if epsilon_m not in _EPSILON_CLASSES:
        raise KBError(f"epsilon_m must be 1..3, got {epsilon_m!r}")
    if behaviour not in SIMULATED_KINDS:
        raise KBError(f"behaviour {behaviour!r} is not case-base encodable")
    features = [0.0] * DIMENSION
    features[_EPSILON_CLASSES.index(epsilon_m)] = 1.0
    offset = len(_EPSILON_CLASSES)
    features[offset + _missed_bucket(missed_doses)] = 1.0
    offset += len(_MISSED_BUCKETS)
    features[offset + _follow_up_bucket(follow_ups)] = 1.0
    offset += len(_FOLLOW_UP_BUCKETS)
    features[offset + _STATES.index(reminder_state.value)] = 1.0
    offset += len(_STATES)
    features[offset] = 1.0 if acknowledged_without_taking else 0.0
    offset += 1
    features[offset + SIMULATED_KINDS.index(behaviour)] = 1.0
    offset += len(SIMULATED_KINDS)
    features[offset] = float(autonomy_utility)
    features[offset + 1] = float(wellbeing_utility)
    return tuple(features)


def distance(u: Sequence[float], v: Sequence[float]) -> float:
    """Normalized euclidean distance between two feature vectors."""
    if len(u) != DIMENSION or len(v) != DIMENSION:
        raise KBError("feature vectors must match the manifest dimension")
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(u, v))) / _DISTANCE_DIVISOR


def _split_vector(vector: Sequence[float]) -> Tuple[int, float, float]:
    """(categorical bitmask, autonomy, wellbeing) of a feature vector."""
    if len(vector) != DIMENSION:
        raise KBError("feature vectors must match the manifest dimension")
    mask = 0
    for index in range(_CATEGORICAL):
        value = vector[index]
        if value == 1.0:
            mask |= 1 << index
        elif value != 0.0:
            raise KBError(
                f"{FEATURE_NAMES[index]} must be 0.0 or 1.0, got {value!r}"
            )
    au, w = vector[_CATEGORICAL], vector[_CATEGORICAL + 1]
    if not (math.isfinite(au) and math.isfinite(w)):
        raise KBError(f"utilities must be finite, got {au!r}, {w!r}")
    return mask, au, w


def case_weight(dist: float) -> float:
    """Vote weight of a retrieved case at the given distance."""
    if dist < 0:
        raise KBError(f"distance cannot be negative: {dist!r}")
    if dist <= NEAR_MATCH_RADIUS:
        return NEAR_MATCH_WEIGHT
    return 1.0 / dist


@dataclass(frozen=True)
class Case:
    """One reviewed precedent."""

    case_id: str
    epsilon_m: int
    missed_doses: float
    follow_ups: int
    reminder_state: ReminderState
    acknowledged_without_taking: bool
    behaviour: BehaviourKind
    autonomy_utility: float
    wellbeing_utility: float
    acceptability: float              # 0 (unacceptable) .. 1 (acceptable)
    intention: Tuple[str, ...]        # value dimension(s) the stance serves

    def __post_init__(self) -> None:
        if not self.case_id:
            raise KBError("case_id must be non-empty")
        for label, value in (
            ("missed_doses", self.missed_doses),
            ("autonomy_utility", self.autonomy_utility),
            ("wellbeing_utility", self.wellbeing_utility),
            ("acceptability", self.acceptability),
        ):
            if not math.isfinite(value):
                raise KBError(f"case {self.case_id}: {label} must be finite, got {value!r}")
        if not (0.0 <= self.acceptability <= 1.0):
            raise KBError(f"acceptability outside [0,1]: {self.acceptability!r}")
        if not self.intention:
            raise KBError(f"case {self.case_id}: intention must be non-empty")
        for tag in self.intention:
            if tag not in VALUE_TAGS:
                raise KBError(f"case {self.case_id}: unknown intention {tag!r}")
        if tuple(sorted(self.intention)) != self.intention:
            raise KBError(f"case {self.case_id}: intention tags must be sorted")

    def features(self) -> Tuple[float, ...]:
        return feature_vector(
            self.epsilon_m,
            self.missed_doses,
            self.follow_ups,
            self.reminder_state,
            self.acknowledged_without_taking,
            self.behaviour,
            self.autonomy_utility,
            self.wellbeing_utility,
        )


@dataclass(frozen=True)
class TraceEntry:
    """One consulted neighbour, as logged for transparency."""

    case_id: str
    distance: float
    weight: float
    acceptability: float
    intention: Tuple[str, ...]


@dataclass(frozen=True)
class CaseOpinion:
    """Aggregated precedent stance on one candidate behaviour."""

    acceptable: bool
    score: float
    intentions: FrozenSet[str]
    trace: Tuple[TraceEntry, ...]


#: One case as retrieval reads it: (autonomy, wellbeing, case id, case).
_Member = Tuple[float, float, str, Case]


class CaseBase:
    """An in-memory, immutable-by-convention collection of cases.

    The cases are also held grouped by categorical block, as a list of
    (block bitmask, members) pairs, which is all ``retrieve`` reads.
    """

    def __init__(self, cases: Iterable[Case] = ()):
        self._cases: List[Case] = list(cases)
        seen = set()
        blocks: Dict[int, List[_Member]] = {}
        for case in self._cases:
            if case.case_id in seen:
                raise KBError(f"duplicate case id {case.case_id!r}")
            seen.add(case.case_id)
            mask, au, w = _split_vector(case.features())
            blocks.setdefault(mask, []).append((au, w, case.case_id, case))
        self._blocks = list(blocks.items())

    def __len__(self) -> int:
        return len(self._cases)

    @property
    def cases(self) -> Tuple[Case, ...]:
        return tuple(self._cases)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def retrieve(
        self, query: Sequence[float], k: int = DEFAULT_NEIGHBOURS
    ) -> List[Tuple[Case, float]]:
        """K nearest cases to the query vector, with their ``distance``.

        Visits the case groups by ascending categorical mismatch count
        and stops at the first group whose lower bound exceeds the k-th
        best distance so far (see the module docstring for why the
        distances and the order are exactly those of ``distance``).

        Requires: k >= 1; a DIMENSION-long query whose categorical
                  coordinates are 0.0 or 1.0 and whose utilities are
                  finite (KBError otherwise).
        Ensures:  at most k (case, distance) pairs ordered by ascending
                  distance, equal distances ordered by case id.
        """
        if k < 1:
            raise KBError(f"k must be >= 1, got {k!r}")
        qmask, au, w = _split_vector(query)
        # Group lists by their number of categorical mismatches.
        levels: List[List[List[_Member]]] = [[] for _ in range(_CATEGORICAL + 1)]
        for mask, members in self._blocks:
            levels[(qmask ^ mask).bit_count()].append(members)
        scored: List[Tuple[float, str, Case]] = []
        for mismatches, groups in enumerate(levels):
            if not groups:
                continue
            if len(scored) >= k and (
                math.sqrt(mismatches) / _DISTANCE_DIVISOR
                > heapq.nsmallest(k, scored)[-1][0]
            ):
                break
            categorical = float(mismatches)
            for members in groups:
                for cau, cw, case_id, case in members:
                    squares = (categorical, (au - cau) ** 2, (w - cw) ** 2)
                    dist = math.sqrt(math.fsum(squares)) / _DISTANCE_DIVISOR
                    scored.append((dist, case_id, case))
        return [(case, dist) for dist, _, case in heapq.nsmallest(k, scored)]

    def consult(
        self,
        behaviour: Behaviour,
        ctx: DecisionContext,
        autonomy_utility: float,
        wellbeing_utility: float,
        verdict: RuleVerdict,
        k: int = DEFAULT_NEIGHBOURS,
    ) -> CaseOpinion:
        """Precedent opinion on one candidate behaviour (see ``vote``).

        With no knowledge at all, the opinion defers to the rule
        verdict: permissible behaviours read as acceptable (score 1.0)
        and impermissible ones as unacceptable (score 0.0), with no
        intentions and an empty trace.
        """
        if not self._cases:
            permissible = verdict.permissible
            return CaseOpinion(
                acceptable=permissible,
                score=1.0 if permissible else 0.0,
                intentions=frozenset(),
                trace=(),
            )
        query = feature_vector(
            ctx.epsilon_m,
            ctx.missed_doses,
            ctx.follow_ups,
            ctx.reminder_state,
            ctx.acknowledged_without_taking,
            behaviour.kind,
            autonomy_utility,
            wellbeing_utility,
        )
        return self.vote(query, k=k)

    def vote(
        self, query: Sequence[float], k: int = DEFAULT_NEIGHBOURS
    ) -> CaseOpinion:
        """Weighted-vote opinion of the K nearest cases to a query vector.

        The acceptability score is the weighted mean over neighbours;
        the query is acceptable when the score reaches 0.5.  The
        opinion's intentions are the union of intention tags over the
        neighbours on the winning side of that vote.

        Requires: a non-empty case base.
        """
        neighbours = self.retrieve(query, k=k)
        weights = [case_weight(dist) for _, dist in neighbours]
        total = math.fsum(weights)
        score = math.fsum(
            w * case.acceptability for (case, _), w in zip(neighbours, weights)
        ) / total
        acceptable = score >= 0.5
        winning: set = set()
        for case, _ in neighbours:
            on_winning_side = (
                case.acceptability >= 0.5 if acceptable else case.acceptability < 0.5
            )
            if on_winning_side:
                winning.update(case.intention)
        trace = tuple(
            TraceEntry(
                case_id=case.case_id,
                distance=dist,
                weight=w,
                acceptability=case.acceptability,
                intention=case.intention,
            )
            for (case, dist), w in zip(neighbours, weights)
        )
        return CaseOpinion(
            acceptable=acceptable,
            score=score,
            intentions=frozenset(winning),
            trace=trace,
        )

    # ------------------------------------------------------------------
    # persistence (JSON lines with a header record)
    # ------------------------------------------------------------------

    def save(self, path: Path | str) -> None:
        path = Path(path)
        lines = [json.dumps(_header(), sort_keys=True)]
        for case in self._cases:
            record = asdict(case)
            record["record_type"] = "case"
            record["reminder_state"] = case.reminder_state.value
            record["behaviour"] = case.behaviour.value
            record["intention"] = list(case.intention)
            lines.append(json.dumps(record, sort_keys=True))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "CaseBase":
        path = Path(path)
        if not path.exists():
            raise KBError(f"case base not found: {path}")
        raw_lines = [
            line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
        ]
        if not raw_lines:
            raise KBError(f"case base {path} is empty (missing header)")
        _check_header(_parse_json(raw_lines[0], path, 1), path)
        cases = []
        for lineno, line in enumerate(raw_lines[1:], start=2):
            record = _parse_json(line, path, lineno)
            if record.get("record_type") != "case":
                raise KBError(f"{path}:{lineno}: expected a case record")
            cases.append(_case_from_record(record, path, lineno))
        return cls(cases)


def _header() -> Dict[str, object]:
    return {
        "record_type": "header",
        "format_version": FORMAT_VERSION,
        "dimension": DIMENSION,
        "feature_names": FEATURE_NAMES,
        "neighbours": DEFAULT_NEIGHBOURS,
        "near_match_radius": NEAR_MATCH_RADIUS,
        "near_match_weight": NEAR_MATCH_WEIGHT,
    }


def _parse_json(line: str, path: Path, lineno: int) -> Dict[str, object]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise KBError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise KBError(f"{path}:{lineno}: record must be an object")
    return record


def _check_header(header: Dict[str, object], path: Path) -> None:
    """Require every field ``_header`` writes, equal to this build's value:
    a base written for another layout, k or vote weighting is refused
    rather than read under this build's."""
    if header.get("record_type") != "header":
        raise KBError(f"{path}: first record must be the header")
    for key, want in _header().items():
        try:
            got = json_field(header, key, [str] if type(want) is tuple else type(want))
            if got != want:
                raise ValueError(f"{key} is {got!r}, this build's is {want!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise KBError(
                f"{path}: header does not match this build's case-base manifest ({exc})"
            ) from exc


def _case_from_record(record: Dict[str, object], path: Path, lineno: int) -> Case:
    try:
        return Case(
            case_id=json_field(record, "case_id", str),
            epsilon_m=json_field(record, "epsilon_m", int),
            missed_doses=json_field(record, "missed_doses", float),
            follow_ups=json_field(record, "follow_ups", int),
            reminder_state=json_field(record, "reminder_state", ReminderState),
            acknowledged_without_taking=json_field(
                record, "acknowledged_without_taking", bool
            ),
            behaviour=json_field(record, "behaviour", BehaviourKind),
            autonomy_utility=json_field(record, "autonomy_utility", float),
            wellbeing_utility=json_field(record, "wellbeing_utility", float),
            acceptability=json_field(record, "acceptability", float),
            intention=json_field(record, "intention", [str]),
        )
    except (KBError, KeyError, ValueError, TypeError) as exc:
        raise KBError(f"{path}:{lineno}: invalid case record ({exc})") from exc
