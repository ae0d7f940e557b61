"""Brute-force KNN oracle for logged decision traces.

Recomputes the K nearest precedents of a logged query by scanning every
case of the case-base file with this module's own encoding and its own
``math.fsum`` distance, ordered by (distance, case id), and compares the
result with the trace the decision logged.  It reads the case base from
the file, not from the package, so an approximate or reordered index in
the package cannot agree with it by construction.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Sequence, Tuple


class CaseFile:
    """Feature vectors and ids of every case in a case-base file."""

    def __init__(self, text: str):
        lines = [line for line in text.splitlines() if line.strip()]
        header = json.loads(lines[0])
        self.names: Tuple[str, ...] = tuple(header["feature_names"])
        self.k: int = int(header["neighbours"])
        self.cases: List[Tuple[str, Tuple[float, ...]]] = []
        for line in lines[1:]:
            record = json.loads(line)
            self.cases.append((record["case_id"], self.encode(record, record["behaviour"])))

    def encode(self, situation: Dict[str, object], behaviour: str) -> Tuple[float, ...]:
        """Feature vector of a situation (a case record or a logged context).

        One-hot fields are named ``<field>_<value>`` in the file's
        manifest; the two utilities are plain scalars.
        """
        missed = min(int(situation["missed_doses"]), 4)
        follow_ups = min(int(situation["follow_ups"]), 3)
        active = {
            f"epsilon_{situation['epsilon_m']}",
            "missed_4plus" if missed == 4 else f"missed_{missed}",
            "follow_ups_3plus" if follow_ups == 3 else f"follow_ups_{follow_ups}",
            f"state_{situation['reminder_state']}",
            f"behaviour_{behaviour}",
        }
        if situation["acknowledged_without_taking"]:
            active.add("acknowledged_without_taking")
        scalars = {
            "autonomy_utility": float(situation["autonomy_utility"]),
            "wellbeing_utility": float(situation["wellbeing_utility"]),
        }
        return tuple(
            scalars[name] if name in scalars else (1.0 if name in active else 0.0)
            for name in self.names
        )

    def nearest(self, query: Sequence[float]) -> List[Tuple[float, str]]:
        divisor = math.sqrt(len(self.names))
        scored = [
            (math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(query, feats))) / divisor, cid)
            for cid, feats in self.cases
        ]
        scored.sort()
        return scored[: self.k]


def logged_queries(steps: Sequence[Dict[str, object]]):
    """(query situation, behaviour, logged trace) of every decision entry."""
    for record in steps:
        decision = record.get("decision")
        if not decision:
            continue
        ctx = decision["context"]
        for entry in decision["entries"]:
            situation = dict(
                ctx,
                autonomy_utility=entry["autonomy_utility"],
                wellbeing_utility=entry["wellbeing_utility"],
            )
            yield situation, entry["behaviour"], entry["opinion"]["trace"]


def check(case_file: CaseFile, steps_per_episode, seed: int, sample: int) -> List[str]:
    """Check a seeded sample of logged traces; return one line per mismatch."""
    queries = [q for steps in steps_per_episode for q in logged_queries(steps)]
    rng = random.Random(f"rulebend-perfbench:{seed}:oracle")
    chosen = rng.sample(queries, min(sample, len(queries)))
    problems = []
    for situation, behaviour, trace in chosen:
        want = case_file.nearest(case_file.encode(situation, behaviour))
        got = [(t["distance"], t["case_id"]) for t in trace]
        if [cid for _, cid in got] != [cid for _, cid in want] or any(
            not math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15)
            for (g, _), (w, _) in zip(got, want)
        ):
            problems.append(
                f"knn oracle: step {situation['step']} {behaviour}: "
                f"logged {got}, brute force {want}"
            )
    return problems
