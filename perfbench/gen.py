"""Seeded inputs for the `sweep` workload.

Two generators, both pure functions of the seed:

* ``case_base_bytes`` jitters the packaged seed cases into a synthetic
  case base of ``BASE_SIZE`` cases and returns the JSON-lines file
  content (the packaged header line, then one case per line).
* ``scenario_spec`` gives scenario ``i`` of the population: a severity,
  a real-valued missed-dose count, a scripted resident, a risk mode and
  a real-valued character, spread evenly over their ranges.  Index
  ``i`` of a seed always gives the same scenario, and no two indices
  share one.

Neither imports the package, so the inputs do not change when the
package does.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

#: Generator parameters; recorded with every result.
PARAMS: Dict[str, object] = {
    "base_size": 2000,
    "utility_jitter_sd": 0.08,
    "missed_doses_jitter": [0.0, 2.0],
    "label_flip_p": 0.1,
    "scenario_missed_doses": [0.0, 4.0],
    "resident_script_len": [1, 4],
    "trait_range": [0.0, 10.0],
    "risk_modes": ["literal", "harm"],
    "halton_bases": [7, 11, 13, 17],
}

BASE_SIZE = int(PARAMS["base_size"])


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so streams are stable across runs
    # and independent of PYTHONHASHSEED.
    return random.Random(f"rulebend-perfbench:{seed}:{stream}")


def _clip(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def case_base_bytes(seed_kb_text: str, seed: int, size: int = BASE_SIZE) -> bytes:
    """A synthetic case base of ``size`` jittered copies of the seed cases.

    Each case copies a seed case drawn at random, moves its missed-dose
    count within ``missed_doses_jitter`` (so all four missed-dose buckets
    below 4 are populated), jitters both utilities, and flips its label
    with probability ``label_flip_p``.
    """
    lines = [line for line in seed_kb_text.splitlines() if line.strip()]
    header, seeds = lines[0], [json.loads(line) for line in lines[1:]]
    rng = _rng(seed, "kb")
    sd = float(PARAMS["utility_jitter_sd"])
    lo, hi = PARAMS["missed_doses_jitter"]
    out: List[str] = [header]
    for n in range(size):
        base = rng.choice(seeds)
        record = dict(base)
        record["case_id"] = f"{base['case_id']}~{n:05d}"
        record["missed_doses"] = round(base["missed_doses"] + rng.uniform(lo, hi), 6)
        record["autonomy_utility"] = round(
            _clip(base["autonomy_utility"] + rng.gauss(0.0, sd), -1.0, 1.0), 6
        )
        record["wellbeing_utility"] = round(
            _clip(base["wellbeing_utility"] + rng.gauss(0.0, sd), -1.0, 1.5), 6
        )
        if rng.random() < float(PARAMS["label_flip_p"]):
            record["acceptability"] = 1.0 - base["acceptability"]
        out.append(json.dumps(record, sort_keys=True))
    return ("\n".join(out) + "\n").encode("utf-8")


#: Halton bases of (missed doses, wellbeing, autonomy, risk propensity).
_BASES = tuple(PARAMS["halton_bases"])
#: Step of the sequence over the discrete combinations: the golden ratio
#: spreads any number of consecutive steps evenly over [0, 1).
_GOLDEN = (5 ** 0.5 - 1) / 2


def _radical_inverse(n: int, base: int) -> float:
    """``n`` with its base-``base`` digits mirrored after the point."""
    x, scale = 0.0, 1.0
    while n:
        n, digit = divmod(n, base)
        scale /= base
        x += digit * scale
    return x


def _script(n_lo: int, n_hi: int, index: int) -> List[str]:
    """Resident script ``index`` of all scripts of length n_lo..n_hi."""
    for length in range(n_lo, n_hi + 1):
        if index < 2 ** length:
            return ["acknowledge" if index >> bit & 1 else "snooze" for bit in range(length)]
        index -= 2 ** length
    raise ValueError("script index out of range")


def scenario_spec(seed: int, index: int) -> Dict[str, object]:
    """Scenario ``index`` of the population for ``seed``.

    Returns the scenario as a scenario-file dict plus the character
    (``traits``: wellbeing, autonomy, risk propensity) and risk mode it
    runs with.

    Consecutive indices are spread evenly, whatever their number, over
    the discrete factors that set an episode's length and over the
    continuous ones.  The discrete factors (whether the resident takes
    the dose, in two cases of three; the resident's script; the
    severity; the risk mode) follow a golden-ratio sequence over their
    540 combinations, the missed doses and the three traits a Halton
    sequence.  The seed shifts both sequences by random offsets.  A
    run's mix of short and long episodes then depends neither on the
    seed nor on how many episodes the run got through, and so neither
    do its median and p90.
    """
    shifts = _rng(seed, "shifts")
    offsets = [shifts.random() for _ in range(len(_BASES) + 1)]
    point = [(_radical_inverse(index + 1, base) + offset) % 1.0
             for base, offset in zip(_BASES, offsets)]
    lo, hi = PARAMS["scenario_missed_doses"]
    n_lo, n_hi = PARAMS["resident_script_len"]
    t_lo, t_hi = PARAMS["trait_range"]
    modes = PARAMS["risk_modes"]
    scripts = sum(2 ** n for n in range(n_lo, n_hi + 1))
    combinations = 3 * scripts * 3 * len(modes)
    combination = int((index * _GOLDEN + offsets[-1]) % 1.0 * combinations)
    rest, takes = divmod(combination, 3)
    rest, script = divmod(rest, scripts)
    mode, severity = divmod(rest, 3)
    return {
        "scenario": {
            "format_version": 1,
            "name": f"sweep{seed}-{index}",
            "epsilon_m": 1 + severity,
            "missed_doses": lo + (hi - lo) * point[0],
            "resident": {
                "responses": _script(n_lo, n_hi, script),
                "takes_medication": takes > 0,
            },
        },
        "traits": [t_lo + (t_hi - t_lo) * x for x in point[1:]],
        "risk_mode": modes[mode],
    }
