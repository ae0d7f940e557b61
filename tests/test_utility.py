"""Numeric layer: grids, densities, utilities, risks, thresholds.

Float expectations below are frozen full-precision values; the formulas
they came from are independently re-derived in the acceptance suite
against an arbitrary-precision oracle.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebend.model import (
    Behaviour,
    BehaviourKind,
    DecisionContext,
    GammaSpec,
    Instruction,
    ReminderState,
)
from rulebend.utility import (
    RISK_MODES,
    UTILITY_GRID,
    autonomy_utility,
    behaviour_risk,
    gamma_pdf,
    pmax_scan,
    pmax_utility,
    risk_scan,
    risk_threshold,
    scale_param,
    shape_param,
    situation_spec,
    thresholds,
    value_thresholds,
    wellbeing_utility,
)

from rulebend import utility
from rulebend.sim import MAX_STEPS

from conftest import breach_context, pending_context


# ----------------------------------------------------------------------
# grid and parameter formulas
# ----------------------------------------------------------------------


def test_utility_grid_is_41_exact_twentieths():
    assert len(UTILITY_GRID) == 41
    assert UTILITY_GRID[0] == -1.0 and UTILITY_GRID[-1] == 1.0
    for k, x in enumerate(UTILITY_GRID):
        assert x == (k - 20) / 20.0
    # the rational construction, not accumulated 0.05 increments
    assert UTILITY_GRID[7] == -0.65
    assert UTILITY_GRID[7] != -1.0 + 7 * 0.05  # the naive sum drifts


def test_shape_param_matches_quadratic_at_the_three_classes():
    assert shape_param(1) == pytest.approx(10.0, abs=1e-12)
    assert shape_param(2) == pytest.approx(4.5, abs=1e-12)
    assert shape_param(3) == pytest.approx(1.65, abs=1e-12)


def test_shape_param_rejects_other_classes():
    with pytest.raises(ValueError):
        shape_param(0)
    with pytest.raises(ValueError):
        shape_param(4)


def test_scale_param_closed_form():
    assert scale_param(0.0) == pytest.approx(math.exp(-2.65) + 0.01, abs=1e-12)
    assert scale_param(1.0) == pytest.approx(math.exp(-2.65 - 0.5) + 0.01, abs=1e-12)
    assert scale_param(0.0) == 0.08065121306042959


def test_scale_param_decreasing_in_dose():
    doses = [k * 0.25 for k in range(17)]
    scales = [scale_param(d) for d in doses]
    assert all(a > b for a, b in zip(scales, scales[1:]))


# ----------------------------------------------------------------------
# gamma pdf
# ----------------------------------------------------------------------


def test_pdf_zero_at_and_below_shift():
    spec = GammaSpec(4.5, 0.05)
    assert gamma_pdf(-1.0, spec) == 0.0
    assert gamma_pdf(-1.5, spec) == 0.0


@given(
    shape=st.floats(1.0, 12.0),
    scale=st.floats(0.005, 0.5),
    x=st.floats(-1.5, 1.5),
)
@settings(max_examples=300, deadline=None)
def test_pdf_is_finite_and_non_negative(shape, scale, x):
    value = gamma_pdf(x, GammaSpec(shape, scale))
    assert value >= 0.0
    assert math.isfinite(value)


def test_pdf_rejects_shape_below_one():
    with pytest.raises(ValueError):
        gamma_pdf(0.0, GammaSpec(0.5, 0.05))


@given(shape=st.floats(1.0, 12.0), scale=st.floats(0.005, 0.5))
@settings(max_examples=200, deadline=None)
def test_pmax_lands_on_the_grid(shape, scale):
    peak = pmax_utility(GammaSpec(shape, scale))
    assert peak in UTILITY_GRID


def test_pmax_with_mode_at_shift_picks_first_point_above_it():
    # shape 1 makes the density strictly decreasing on the support and
    # exactly zero at the shift, so the first grid point above wins
    spec = GammaSpec(1.0, 0.05)
    assert pmax_utility(spec) == -0.95


# ----------------------------------------------------------------------
# closed-form peaks against the 41-point scans, bit for bit
# ----------------------------------------------------------------------


def _bits(x):
    # tells -0.0 from 0.0, which == does not
    return struct.pack("<d", x)


def _peaks(spec):
    return [pmax_utility(spec)] + [behaviour_risk(spec, m) for m in RISK_MODES]


def _scans(spec):
    return [pmax_scan(spec)] + [risk_scan(spec, m) for m in RISK_MODES]


def _assert_matches_the_scans(specs):
    for spec in specs:
        assert list(map(_bits, _peaks(spec))) == list(map(_bits, _scans(spec))), spec


def _reachable_doses():
    """Every dose a decision can look up: d + f/8, f/3, f/4, d + 1, d + s/8.

    d is a packaged scenario's missed-dose count; the follow-up count f
    and the snooze count s cannot exceed the episode horizon.
    """
    doses = set()
    for d in (0.0, 2.0):
        doses.add(d + 1.0)
        for n in range(MAX_STEPS + 1):
            doses.update((d + n / 8.0, d + n / 3.0, d + n / 4.0))
    return sorted(doses)


def test_closed_form_peaks_match_the_scans_on_every_reachable_spec(monkeypatch):
    specs = [GammaSpec(shape_param(eps), scale_param(dose))
             for eps in (1, 2, 3) for dose in _reachable_doses()]
    expected = [_scans(spec) for spec in specs]

    def no_scan(*args):
        raise AssertionError("a reachable spec fell back to the scan")

    monkeypatch.setattr(utility, "pmax_scan", no_scan)
    monkeypatch.setattr(utility, "risk_scan", no_scan)
    for spec, want in zip(specs, expected):
        assert list(map(_bits, _peaks(spec))) == list(map(_bits, want)), spec


def test_closed_form_peaks_match_the_scans_on_random_real_doses():
    rng = random.Random(20240722)
    _assert_matches_the_scans(
        GammaSpec(shape_param(rng.randint(1, 3)), scale_param(rng.uniform(0.0, 8.0)))
        for _ in range(100_000)
    )


def test_closed_form_peaks_match_the_scans_on_log_uniform_specs():
    rng = random.Random(60)
    specs = [
        GammaSpec(math.exp(rng.uniform(0.0, math.log(1e6))),
                  math.exp(rng.uniform(math.log(1e-7), math.log(1e4))))
        for _ in range(10_000)
    ]
    _assert_matches_the_scans(specs)
    # the family reaches total underflow, where only the fallback is exact
    underflow = [s for s in specs
                 if not any(gamma_pdf(x, s) for x in UTILITY_GRID)]
    assert len(underflow) > 100


def test_total_underflow_keeps_the_scans_tie_rules():
    spec = GammaSpec(2.0, 1e-6)  # every grid density underflows to 0.0
    assert not any(gamma_pdf(x, spec) for x in UTILITY_GRID)
    assert pmax_utility(spec) == 1.0  # the later of equal values
    assert _bits(behaviour_risk(spec, "literal")) == _bits(-0.0)  # the first
    assert _bits(behaviour_risk(spec, "harm")) == _bits(0.0)


def test_a_density_too_flat_to_show_its_peak_falls_back_to_the_scan():
    # the true peak is at -1, but at this scale every grid value rounds
    # to the same float, so the scan's later-equal rule picks 1.0
    spec = GammaSpec(1.0, 1e15)
    assert len({gamma_pdf(x, spec) for x in UTILITY_GRID[1:]}) == 1
    assert pmax_utility(spec) == pmax_scan(spec) == 1.0


# ----------------------------------------------------------------------
# autonomy utility
# ----------------------------------------------------------------------


def test_autonomy_obedience_dominates_everything():
    ctx = pending_context(Instruction.SNOOZE)
    obey = Behaviour(BehaviourKind.SNOOZE, obeys=Instruction.SNOOZE)
    assert autonomy_utility(obey, ctx) == 1.0
    # any non-carrying action against a pending instruction scores -0.7,
    # including kinds that otherwise have their own constant
    for kind in (BehaviourKind.RECORD, BehaviourKind.REPORT, BehaviourKind.FOLLOW_UP):
        assert autonomy_utility(Behaviour(kind), ctx) == -0.7


def test_autonomy_constants_without_pending_instruction():
    ctx = breach_context(follow_ups=4)
    assert autonomy_utility(Behaviour(BehaviourKind.RECORD), ctx) == 0.5
    assert autonomy_utility(Behaviour(BehaviourKind.REPORT), ctx) == -0.7
    assert autonomy_utility(Behaviour(BehaviourKind.FOLLOW_UP), ctx) == -0.4
    assert autonomy_utility(Behaviour(BehaviourKind.RESTRAIN), ctx) == -1.0
    assert autonomy_utility(Behaviour(BehaviourKind.REMIND), ctx) == 0.0


def test_follow_up_penalty_is_exact_tenths():
    for f in range(11):
        ctx = breach_context(follow_ups=f)
        value = autonomy_utility(Behaviour(BehaviourKind.FOLLOW_UP), ctx)
        assert value == (-f) / 10.0
    assert repr(autonomy_utility(
        Behaviour(BehaviourKind.FOLLOW_UP), breach_context(follow_ups=0)
    )) == "0.0"


# ----------------------------------------------------------------------
# wellbeing utility (frozen peak values for the six reference situations)
# ----------------------------------------------------------------------

SITUATIONS = {1: (1, 0.0), 2: (2, 0.0), 3: (3, 0.0), 4: (1, 2.0), 5: (2, 2.0), 6: (3, 2.0)}
FROZEN_FOLLOW_UP_W = {
    1: [-0.25, -0.35, -0.45, -0.5, -0.6, -0.65],
    2: [-0.7, -0.75, -0.8, -0.8, -0.85, -0.85],
    3: [-0.95] * 6,
    4: [-0.7, -0.7, -0.75, -0.75, -0.8, -0.8],
    5: [-0.85, -0.9, -0.9, -0.9, -0.9, -0.9],
    6: [-0.95] * 6,
}
FROZEN_RECORD_W = {1: -0.5, 2: -0.8, 3: -0.95, 4: -0.75, 5: -0.9, 6: -0.95}


@pytest.mark.parametrize("situation", sorted(SITUATIONS))
def test_follow_up_wellbeing_track(situation):
    eps, d = SITUATIONS[situation]
    got = [
        wellbeing_utility(
            Behaviour(BehaviourKind.FOLLOW_UP),
            breach_context(epsilon_m=eps, missed_doses=d, follow_ups=f),
        )[0]
        for f in range(6)
    ]
    assert got == FROZEN_FOLLOW_UP_W[situation]


@pytest.mark.parametrize("situation", sorted(SITUATIONS))
def test_record_and_report_mirror_each_other(situation):
    eps, d = SITUATIONS[situation]
    ctx = breach_context(epsilon_m=eps, missed_doses=d)
    record_w, record_spec = wellbeing_utility(Behaviour(BehaviourKind.RECORD), ctx)
    report_w, report_spec = wellbeing_utility(Behaviour(BehaviourKind.REPORT), ctx)
    assert record_w == FROZEN_RECORD_W[situation]
    assert report_w == abs(record_w)
    assert record_spec == report_spec  # same closure density, signed vs magnitude


def test_remind_carries_the_prompt_bonus():
    ctx = DecisionContext(
        epsilon_m=1, missed_doses=0.0, follow_ups=0,
        reminder_state=ReminderState.ISSUED, last_instruction=None,
        instruction_pending=False, acknowledged_without_taking=False,
        snoozes_granted=0, snooze_remaining=0, step=1,
    )
    w, _ = wellbeing_utility(Behaviour(BehaviourKind.REMIND), ctx)
    assert w == -0.25 + 0.5


def test_snooze_dose_fraction_is_an_eighth():
    ctx = pending_context(Instruction.SNOOZE, follow_ups=2)
    w, spec = wellbeing_utility(Behaviour(BehaviourKind.SNOOZE), ctx)
    assert spec.scale == scale_param(2 / 8.0)
    assert w == -0.35


# ----------------------------------------------------------------------
# risk
# ----------------------------------------------------------------------

FROZEN_LITERAL_SITUATION_RISK = {
    # situation -> risk by snoozes granted 0..3
    1: [0.08432806879899232, 0.06318779730318695,
        0.04625020220535553, 0.03293951570495398],
    2: [0.0011916503445367056, 0.0007091337130949718,
        0.00040622461348720175, 0.00022377617387224879],
    3: [8.981857151148383e-06, 4.575570055257692e-06,
        2.2466391992409358e-06, 1.0683549075131995e-06],
    4: [1.2528855809483392e-05, 5.158138041812477e-06,
        2.033314084525483e-06, 7.683232284525373e-07],
    5: [3.424239381184692e-09, 1.102252082439043e-09,
        3.4123289958460935e-10, 1.0172353439003763e-10],
    6: [2.955813817865885e-12, 8.375649995258284e-13,
        2.287755937526484e-13, 6.031475923548667e-14],
}


@pytest.mark.parametrize("situation", sorted(FROZEN_LITERAL_SITUATION_RISK))
def test_literal_situation_risk_track(situation):
    eps, d = SITUATIONS[situation]
    for snoozes, expected in enumerate(FROZEN_LITERAL_SITUATION_RISK[situation]):
        ctx = breach_context(epsilon_m=eps, missed_doses=d, snoozes=snoozes)
        assert behaviour_risk(situation_spec(ctx), mode="literal") == expected


def test_harm_risk_reads_only_the_loss_side():
    ctx = breach_context(epsilon_m=1, missed_doses=0.0, snoozes=2)
    spec = situation_spec(ctx)
    assert behaviour_risk(spec, mode="harm") == 0.7258676239763759
    assert behaviour_risk(spec, mode="harm") != behaviour_risk(spec, mode="literal")


def test_harm_risk_example_magnitudes():
    assert round(behaviour_risk(GammaSpec(10.0, 0.08059), mode="harm"), 4) == 0.5617
    assert round(behaviour_risk(GammaSpec(1.65, 0.0906), mode="harm"), 4) == 4.5584


def test_unknown_risk_mode_rejected():
    with pytest.raises(ValueError):
        behaviour_risk(GammaSpec(4.5, 0.05), mode="typical")
    assert set(RISK_MODES) == {"harm", "literal"}


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

FROZEN_RISK_THRESHOLDS = [
    0.0, 0.027100528898504894, 0.06154544446279677, 0.10532511432365514,
    0.16096930626682554, 0.23169336852789435, 0.3215840257202206,
    0.43583552644200935, 0.581049788133882, 0.7656178827803108,
    1.0002049072538155,
]


def test_risk_threshold_frozen_ladder():
    for c, expected in enumerate(FROZEN_RISK_THRESHOLDS):
        assert risk_threshold(float(c)) == expected


def test_value_thresholds_are_exact_tenths():
    for c in range(11):
        gain, loss = value_thresholds(float(c))
        assert gain == (10 - c) / 10.0
        assert loss == (c - 10) / 10.0


def test_thresholds_bundle(profiles):
    bundle = thresholds(profiles["A"])
    assert bundle["risk_ceiling"] == FROZEN_RISK_THRESHOLDS[1]
    assert bundle["autonomy"]["gain_floor"] == 0.3
    assert bundle["autonomy"]["loss_floor"] == -0.3
    assert bundle["wellbeing"]["gain_floor"] == 0.7
    assert bundle["wellbeing"]["loss_floor"] == -0.7
