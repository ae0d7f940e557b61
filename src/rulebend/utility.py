"""Utility models: autonomy constants and the wellbeing outcome density.

Wellbeing outcomes live on a shifted gamma density

    g(x; a, b, v) = ((x - v)/b)^(a-1) * exp(-(x - v)/b) / (b * Gamma(a))

for x > v and 0 otherwise, with shift v = -1 so the support starts at
the worst outcome.  The shape follows the medicine impact class and the
scale follows the effective count of missed doses:

    shape(e) = 1.325*e^2 - 9.475*e + 18.15          e in {1, 2, 3}
    scale(c) = exp(-2.65 - c/2) + 0.01

A behaviour's wellbeing utility is the most probable outcome value
(PMax), the argmax of g over a fixed 41-point grid on [-1, 1].  Each
behaviour converts the follow-up count f into a fraction of a missed
dose before looking up the density: a snooze costs f/8, a follow-up
f/3, a fresh reminder f/4 (plus a +0.5 bonus for prompting on time),
while record/report settle the cycle at a full missed dose d+1.

Peaks in closed form.  ``pmax_scan`` and ``risk_scan`` are the
definitions: they evaluate all 41 grid points.  The decision path reads
the same numbers off a window of six grid points instead:

- g peaks at x* = v + (a-1)b (shape a >= 1, scale b);
- the risk products g(x)*|x| (harm, x < 0) and g(x)*x (literal, x > 0)
  peak where d/dx log = (a-1)/(x-v) - 1/b + 1/x vanishes, at the roots
  of x^2 - (ab+v)x + bv = 0, which with v = -1 is
  x^2 - (ab-1)x - b = 0: harm at the smaller (negative) root, literal
  at the larger (positive) one.

All three functions are log-concave on their domain, so on the grid
they rise up to the two points bracketing the peak and fall after it.
With k = floor((x*+1)*20) the grid argmax is k or k+1; the window
k-2..k+3 adds two points of slack on each side for the rounding of x*
and of the computed density.  Inside the window the scans' tie rules
are kept: PMax takes the later of equal values; a risk is the maximum
value itself, so only a signed zero could tell its first-maximum rule
apart, and zeros never leave the window (below).

A window is trusted only when its computed values show a peak: the
largest value must be a normal float, and it must not sit on a window
end unless that end is the end of the grid.  Otherwise the answer comes
from the scan.  That covers total underflow, where every density value
is 0.0 and the scans' tie rules give PMax 1.0 and a literal risk of
-0.0, as well as densities too flat for their rounding to show a peak.
No spec the simulator reaches takes the scan.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Dict, Optional, Tuple

from .model import (
    AUTONOMY,
    EPSILON_CLASSES,
    TRAIT_MAX,
    TRAIT_MIN,
    WELLBEING,
    Behaviour,
    BehaviourKind,
    CharacterProfile,
    DecisionContext,
    GammaSpec,
)

#: Candidate outcome values: 41 evenly spaced points on [-1, 1].
#: Built as exact binary fractions k/20 so grid values compare cleanly
#: against the tenth-based thresholds ((k-20)/20 at even k is exactly a
#: multiple of 0.1 in float64; -1 + k*0.05 is not).
UTILITY_GRID: Tuple[float, ...] = tuple((k - 20) / 20.0 for k in range(41))

#: Last grid index, and the last negative one (where harm windows end).
_LAST = len(UTILITY_GRID) - 1
_LAST_NEGATIVE = UTILITY_GRID.index(0.0) - 1

#: Smallest normal float: a window peak below it is underflow, not a peak.
_SMALLEST_NORMAL = sys.float_info.min

VALUE_SHIFT = -1.0

#: Divisor converting the follow-up count into missed-dose fractions,
#: keyed by the behaviour being costed.  Applied as f / divisor (not
#: f * precomputed_fraction) so the dose is a single correctly rounded
#: float64 division.
_FOLLOW_UP_DIVISOR: Dict[BehaviourKind, float] = {
    BehaviourKind.SNOOZE: 8.0,
    BehaviourKind.FOLLOW_UP: 3.0,
    BehaviourKind.REMIND: 4.0,
}

RISK_MODES = ("harm", "literal")


def shape_param(epsilon_m: int) -> float:
    """Density shape from the medicine impact class."""
    if epsilon_m not in EPSILON_CLASSES:
        raise ValueError(f"epsilon_m must be 1..3, got {epsilon_m!r}")
    e = float(epsilon_m)
    return 1.325 * e * e - 9.475 * e + 18.15


def scale_param(dose_count: float) -> float:
    """Density scale from the effective missed-dose count."""
    if dose_count < 0:
        raise ValueError(f"dose count cannot be negative, got {dose_count!r}")
    return math.exp(-2.65 - dose_count / 2.0) + 0.01


def gamma_pdf(x: float, spec: GammaSpec) -> float:
    """Shifted gamma density at x.  Zero at and below the shift.

    Evaluated in log space (lgamma) so large shapes and small scales do
    not overflow.  Requires shape >= 1; below that the density diverges
    at the shift and the grid semantics stop being meaningful.
    """
    if spec.shape < 1.0:
        raise ValueError(f"gamma_pdf requires shape >= 1, got {spec.shape!r}")
    if x <= spec.shift:
        return 0.0
    z = (x - spec.shift) / spec.scale
    return math.exp(
        (spec.shape - 1.0) * math.log(z)
        - z
        - math.lgamma(spec.shape)
        - math.log(spec.scale)
    )


def pmax_scan(spec: GammaSpec) -> float:
    """Most probable outcome value: grid argmax of the density.

    The 41-point definition of PMax, kept as the reference for
    ``pmax_utility``.  Ties resolve toward the larger x (the scan keeps
    later equal peaks).
    """
    best_x = UTILITY_GRID[0]
    best_p = gamma_pdf(best_x, spec)
    for x in UTILITY_GRID[1:]:
        p = gamma_pdf(x, spec)
        if p >= best_p:
            best_x, best_p = x, p
    return best_x


def _window_peak(
    f: Callable[[float], float], x_peak: float, last: int
) -> Optional[Tuple[int, float]]:
    """Grid index and value of the largest ``f`` near ``x_peak``.

    Scans grid indices k-2..k+3, k = floor((x_peak+1)*20), cut to
    0..last; later equal values win.  Returns None when the window shows
    no peak: the largest value is not a normal float, or it sits on a
    window end that is not an end of 0..last.
    """
    if -1.0 <= x_peak <= 1.0:
        k = min(math.floor((x_peak + 1.0) * 20.0), last)
    else:
        k = last if x_peak > 1.0 else 0
    lo = max(k - 2, 0)
    hi = min(k + 3, last)
    best_i, best = lo, f(UTILITY_GRID[lo])
    for i in range(lo + 1, hi + 1):
        value = f(UTILITY_GRID[i])
        if value >= best:
            best_i, best = i, value
    if not best >= _SMALLEST_NORMAL or best_i == lo > 0 or best_i == hi < last:
        return None
    return best_i, best


def pmax_utility(spec: GammaSpec) -> float:
    """``pmax_scan(spec)``, from the six grid points around x* = v + (a-1)b.

    Falls back to the scan where the window shows no peak (see the
    module docstring), which includes total underflow.
    """
    x_star = spec.shift + (spec.shape - 1.0) * spec.scale
    peak = _window_peak(lambda x: gamma_pdf(x, spec), x_star, _LAST)
    return pmax_scan(spec) if peak is None else UTILITY_GRID[peak[0]]


def autonomy_utility(behaviour: Behaviour, ctx: DecisionContext) -> float:
    """Piecewise-constant autonomy effect of a behaviour.

    carrying out the pending instruction   +1
    disregarding a pending instruction     -0.7
    recording the missed dose              +0.5
    reporting to the care-worker           -0.7
    following up                           -0.1 per prior follow-up
    restraining the resident               -1
    acting with no instruction in play      0

    Obedience is judged first, so any action that ignores a pending
    instruction scores -0.7 regardless of its kind.  The follow-up
    penalty is computed as (-f)/10 so each value is the exact float64
    tenth rather than an accumulation of 0.1 rounding error.
    """
    if ctx.instruction_pending:
        if behaviour.obeys is not None and behaviour.obeys is ctx.last_instruction:
            return 1.0
        return -0.7
    kind = behaviour.kind
    if kind is BehaviourKind.RECORD:
        return 0.5
    if kind is BehaviourKind.REPORT:
        return -0.7
    if kind is BehaviourKind.FOLLOW_UP:
        return (-ctx.follow_ups) / 10.0
    if kind is BehaviourKind.RESTRAIN:
        return -1.0
    return 0.0


def wellbeing_utility(
    behaviour: Behaviour, ctx: DecisionContext
) -> Tuple[float, GammaSpec]:
    """Wellbeing utility of a behaviour and the density it came from.

    remind     PMax(d + f/4) + 0.5
    snooze     PMax(d + f/8)
    follow_up  PMax(d + f/3)
    record     PMax(d + 1)
    otherwise  |PMax(d + 1)|   (report / wait-and-inspect: the cycle is
                                headed for closure, magnitude matters)
    """
    kind = behaviour.kind
    d = ctx.missed_doses
    f = ctx.follow_ups
    divisor = _FOLLOW_UP_DIVISOR.get(kind)
    if divisor is not None:
        dose = d + f / divisor
    else:
        dose = d + 1.0
    spec = GammaSpec(shape_param(ctx.epsilon_m), scale_param(dose), VALUE_SHIFT)
    peak = pmax_utility(spec)
    if kind is BehaviourKind.REMIND:
        return peak + 0.5, spec
    if kind in (BehaviourKind.SNOOZE, BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD):
        return peak, spec
    return abs(peak), spec


def situation_spec(ctx: DecisionContext) -> GammaSpec:
    """Density describing the situation itself, not any one behaviour.

    Each snooze the robot has granted this cycle pushed the dose later,
    so the situation carries d plus one snooze-fraction per grant.
    """
    snooze_divisor = _FOLLOW_UP_DIVISOR[BehaviourKind.SNOOZE]
    dose = ctx.missed_doses + ctx.snoozes_granted / snooze_divisor
    return GammaSpec(shape_param(ctx.epsilon_m), scale_param(dose), VALUE_SHIFT)


def risk_scan(spec: GammaSpec, mode: str = "harm") -> float:
    """Scalar risk read off the outcome density.

    harm:    max over the negative grid of density * |x| — how likely
             and how bad the harmful outcomes are.
    literal: max over the whole grid of density * x — the raw signed
             product, so densities peaked on good outcomes score near
             their peak and harm-peaked densities score tiny positives.

    The 41-point definition of the risk, kept as the reference for
    ``behaviour_risk``.  ``max`` keeps the first of equal values.
    """
    if mode == "harm":
        return max(gamma_pdf(x, spec) * -x for x in UTILITY_GRID if x < 0.0)
    if mode == "literal":
        return max(gamma_pdf(x, spec) * x for x in UTILITY_GRID)
    raise ValueError(f"unknown risk mode {mode!r}; expected one of {RISK_MODES}")


def behaviour_risk(spec: GammaSpec, mode: str = "harm") -> float:
    """``risk_scan(spec, mode)``, from the six grid points around its peak.

    The peaks are the roots of x^2 - (ab+v)x + bv = 0: harm takes the
    smaller one over the negative grid points, literal the larger one
    over the whole grid.  Falls back to the scan where the window shows
    no peak (see the module docstring), which includes the total
    underflow that gives a literal risk of -0.0.
    """
    if mode not in RISK_MODES:
        raise ValueError(f"unknown risk mode {mode!r}; expected one of {RISK_MODES}")
    a, b, v = spec.shape, spec.scale, spec.shift
    half_sum = (a * b + v) / 2.0
    half_gap = math.sqrt(max(half_sum * half_sum - b * v, 0.0))
    if mode == "harm":
        peak = _window_peak(
            lambda x: gamma_pdf(x, spec) * -x, half_sum - half_gap, _LAST_NEGATIVE
        )
    else:
        peak = _window_peak(
            lambda x: gamma_pdf(x, spec) * x, half_sum + half_gap, _LAST
        )
    return risk_scan(spec, mode) if peak is None else peak[1]


def risk_threshold(risk_propensity: float) -> float:
    """Maximum risk a character with the given propensity accepts."""
    if not (TRAIT_MIN <= risk_propensity <= TRAIT_MAX):
        raise ValueError(f"risk propensity outside [0, 10]: {risk_propensity!r}")
    return (math.exp(risk_propensity / 4.17) - 1.0) / 10.0


def value_thresholds(preference: float) -> Tuple[float, float]:
    """(gain floor, loss floor) for a value weighted ``preference``.

    A behaviour promoting the value must reach the gain floor
    (10 - C)/10; one merely touching it must stay above the loss floor
    (C - 10)/10.  Both are exact float64 tenths.
    """
    if not (TRAIT_MIN <= preference <= TRAIT_MAX):
        raise ValueError(f"preference outside [0, 10]: {preference!r}")
    return (10.0 - preference) / 10.0, (preference - 10.0) / 10.0


def thresholds(profile: CharacterProfile) -> Dict[str, object]:
    """All gates implied by one character profile, for logs and tests."""
    t_pos_w, t_neg_w = value_thresholds(profile.wellbeing)
    t_pos_au, t_neg_au = value_thresholds(profile.autonomy)
    return {
        WELLBEING: {"gain_floor": t_pos_w, "loss_floor": t_neg_w},
        AUTONOMY: {"gain_floor": t_pos_au, "loss_floor": t_neg_au},
        "risk_ceiling": risk_threshold(profile.risk_propensity),
    }
