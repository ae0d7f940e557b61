"""An exact atlas of trait space for one scenario and risk mode.

A character reaches a decision only through the gates of contested
candidates (``evaluator.contested_gates``).  Each gate reads one trait
and passes on one interval of it; arbitration and fallback never read
the profile.  So the episode a character runs is fixed once every gate
of every context it meets answers the same.

A *cut* is a float x of one trait axis where a gate's answer may change
between x and ``math.nextafter(x, inf)``.  It is found by bisecting over
the float bit patterns of [0, 10] on the gate's own threshold
(``value_thresholds`` or ``risk_threshold``), never by inverting the
formula.  The cuts split the cube [0, 10]^3 into cells; on each axis a
cell is a closed float interval [0, c1], [nextafter(c1), c2], ...,
[nextafter(ck), 10].  A tie passes a gate, so the float at which a
threshold meets a utility lands in the cell of the floats that pass,
and a cell may be one float wide.

``build_atlas`` starts from an empty assessment table and no cuts, runs
one episode at the lower corner of each new cell, turns every contested
gate of every new table entry into cuts, and repeats until the table
stops growing.  Then every context an episode from any cell can meet is
in the table, every gate of it answers the same across each cell, and
so every point of a cell runs its corner's episode decision by
decision and has its ``signature()``.

The thresholds are monotone in the trait.  ``math.exp`` is not
guaranteed to be correctly rounded, so each bisection probe checks that
its threshold lies between those at the bracket ends and raises
``AtlasError`` when it does not.
"""

from __future__ import annotations

import itertools
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import sim
from .casekb import CaseBase
from .evaluator import Gate, clears, contested_gates, gate_floor
from .governor import AssessmentTable
from .model import CharacterProfile

#: The trait axes of a point, in the order (C_w, C_au, C_rp).
TRAIT_AXES = ("wellbeing", "autonomy", "risk_propensity")
TRAIT_MIN = 0.0
TRAIT_MAX = 10.0

Point = Tuple[float, float, float]
Signature = Tuple


class AtlasError(RuntimeError):
    """A threshold was not monotone over a bisection bracket."""


def _bits(x: float) -> int:
    """The bit pattern of a non-negative float; it orders like the float."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def gate_cut(gate: Gate) -> Optional[float]:
    """The float x in [0, 10) where ``gate`` answers differently at x and
    at ``nextafter(x, inf)``, or None when it answers the same on all of
    [0, 10]."""
    lo, hi = _bits(TRAIT_MIN), _bits(TRAIT_MAX)
    t_lo, t_hi = gate_floor(gate.floor, TRAIT_MIN), gate_floor(gate.floor, TRAIT_MAX)
    answer = clears(gate, t_lo)
    if clears(gate, t_hi) == answer:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = _float(mid)
        t = gate_floor(gate.floor, x)
        if not min(t_lo, t_hi) <= t <= max(t_lo, t_hi):
            raise AtlasError(
                f"{gate.floor} threshold at {x!r} is {t!r}, outside "
                f"[{min(t_lo, t_hi)!r}, {max(t_lo, t_hi)!r}] of its bracket"
            )
        if clears(gate, t) == answer:
            lo, t_lo = mid, t
        else:
            hi, t_hi = mid, t
    return _float(lo)


def _lower_ends(cuts: Sequence[float]) -> List[float]:
    """The lowest float of each cell on an axis with sorted ``cuts``."""
    return [TRAIT_MIN] + [math.nextafter(cut, math.inf) for cut in cuts]


@dataclass(frozen=True)
class Atlas:
    """The cuts on each trait axis and the episode signature of each cell."""

    cuts: Tuple[Tuple[float, ...], ...]       # ascending, one tuple per TRAIT_AXES
    cells: Dict[Tuple[int, ...], Signature]   # cell index per axis -> signature

    def signature(self, point: Point) -> Signature:
        """The ``signature()`` of the episode a character at ``point`` runs."""
        if not all(TRAIT_MIN <= x <= TRAIT_MAX for x in point):
            raise ValueError(f"trait point outside [0, 10]^3: {point!r}")
        return self.cells[
            tuple(bisect_left(cuts, x) for cuts, x in zip(self.cuts, point))
        ]


def build_atlas(scenario: sim.Scenario, kb: CaseBase, risk_mode: str = "literal") -> Atlas:
    """The atlas of ``scenario`` under ``risk_mode``, by cut fixpoint.

    Runs ``sim.run_episode`` once per cell, at its lower corner, through
    an assessment table of its own.
    """
    assessments: AssessmentTable = {}
    cuts: Tuple[Set[float], ...] = tuple(set() for _ in TRAIT_AXES)
    corners: Dict[Point, Signature] = {}
    # a cut depends on the floor kind and the quantity alone, and
    # situations and utilities repeat across contexts
    known_cuts: Dict[Tuple[str, float], Optional[float]] = {}
    gated = 0       # table entries whose gates are already cuts
    while True:
        axes = [sorted(axis_cuts) for axis_cuts in cuts]
        for corner in itertools.product(*map(_lower_ends, axes)):
            if corner not in corners:
                profile = CharacterProfile("atlas", *corner)
                episode = sim.run_episode(
                    scenario, profile, kb, risk_mode=risk_mode, assessments=assessments
                )
                corners[corner] = episode.signature()
        if len(assessments) == gated:
            break
        for assessment in itertools.islice(assessments.values(), gated, None):
            for _, verdict, au, w, _, opinion in assessment.candidates:
                for gate in contested_gates(assessment.situation, verdict, opinion, au, w):
                    key = (gate.floor, gate.quantity)
                    if key not in known_cuts:
                        known_cuts[key] = gate_cut(gate)
                    if known_cuts[key] is not None:
                        cuts[TRAIT_AXES.index(gate.axis)].add(known_cuts[key])
        gated = len(assessments)
    ends = [_lower_ends(axis) for axis in axes]
    return Atlas(
        cuts=tuple(tuple(axis) for axis in axes),
        cells={
            index: corners[tuple(end[i] for end, i in zip(ends, index))]
            for index in itertools.product(*(range(len(end)) for end in ends))
        },
    )
