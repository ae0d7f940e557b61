"""The trait-space atlas against brute-force episodes, and its pin."""

import math
import random

import pytest

from rulebend import atlas as atlas_module
from rulebend.atlas import AtlasError, build_atlas, gate_cut
from rulebend.cli import CASE_ORDER, _packaged_scenarios
from rulebend.evaluator import GAIN_FLOOR, LOSS_FLOOR, RISK_CEILING, Gate
from rulebend.model import RISK_AXIS, TRAIT_AXES, CharacterProfile
from rulebend.sim import run_episode
from rulebend.utility import RISK_MODES

from atlas_digest import ATLAS_SHA256, atlas_digest

#: Seeded random real points per scenario and risk mode.
RANDOM_POINTS = 500
#: Seeded random points on each side of every cut.
POINTS_PER_CUT_SIDE = 5


@pytest.fixture(scope="module")
def scenarios():
    return _packaged_scenarios()


@pytest.fixture(scope="module")
def atlases(seed_kb, scenarios):
    return {
        mode: {case: build_atlas(scenario, seed_kb, mode)
               for case, scenario in scenarios.items()}
        for mode in RISK_MODES
    }


def _mismatches(seed_kb, scenarios, atlases, mode, points_by_case):
    """(case, point) pairs where the atlas differs from a brute-force episode;
    the episodes of one call share one assessment table."""
    table = {}
    wrong = []
    for case, points in points_by_case.items():
        for point in points:
            profile = CharacterProfile("brute", *map(float, point))
            episode = run_episode(scenarios[case], profile, seed_kb,
                                  risk_mode=mode, assessments=table)
            if atlases[mode][case].signature(point) != episode.signature():
                wrong.append((case, point))
    return wrong


def _random_point(rng):
    return tuple(rng.uniform(0.0, 10.0) for _ in TRAIT_AXES)


@pytest.mark.parametrize("mode", RISK_MODES)
def test_atlas_matches_brute_force_at_every_integer_point(
        seed_kb, scenarios, atlases, mode):
    lattice = [(w, a, r) for w in range(11) for a in range(11) for r in range(11)]
    assert _mismatches(seed_kb, scenarios, atlases, mode,
                       {case: lattice for case in CASE_ORDER}) == []


@pytest.mark.parametrize("mode", RISK_MODES)
def test_atlas_matches_brute_force_at_random_real_points(
        seed_kb, scenarios, atlases, mode):
    rng = random.Random(f"atlas-random:{mode}")
    points = {case: [_random_point(rng) for _ in range(RANDOM_POINTS)]
              for case in CASE_ORDER}
    assert _mismatches(seed_kb, scenarios, atlases, mode, points) == []


@pytest.mark.parametrize("mode", RISK_MODES)
def test_atlas_matches_brute_force_on_both_floats_of_every_cut(
        seed_kb, scenarios, atlases, mode, profiles):
    rng = random.Random(f"atlas-cuts:{mode}")
    points = {}
    for case in CASE_ORDER:
        # the packaged profiles, and one float either side on each axis
        around = []
        for profile in profiles.values():
            packaged = (profile.wellbeing, profile.autonomy, profile.risk_propensity)
            around.append(packaged)
            for axis, x in enumerate(packaged):
                for neighbour in (math.nextafter(x, -1.0), math.nextafter(x, 11.0)):
                    if 0.0 <= neighbour <= 10.0:
                        around.append(packaged[:axis] + (neighbour,) + packaged[axis + 1:])
        for axis, cuts in enumerate(atlases[mode][case].cuts):
            for cut in cuts:
                for x in (cut, math.nextafter(cut, math.inf)):
                    for _ in range(POINTS_PER_CUT_SIDE):
                        point = list(_random_point(rng))
                        point[axis] = x
                        around.append(tuple(point))
        points[case] = around
    assert _mismatches(seed_kb, scenarios, atlases, mode, points) == []


def test_packaged_a_and_arw_sit_on_the_top_end_of_a_literal_cell(atlases):
    # a tie passes, so the cut is the last float of the cell that passes
    assert 7.0 in atlases["literal"]["case2"].cuts[TRAIT_AXES.index("autonomy")]
    assert 5.0 in atlases["literal"]["case1"].cuts[TRAIT_AXES.index("wellbeing")]
    a_case2 = atlases["literal"]["case2"]
    assert a_case2.signature((3.0, 7.0, 1.0)) != \
        a_case2.signature((3.0, math.nextafter(7.0, math.inf), 1.0))


def test_atlases_hold_one_cell_per_episode(atlases):
    cells = {mode: [len(atlases[mode][case].cells) for case in CASE_ORDER]
             for mode in RISK_MODES}
    assert cells == {"literal": [24, 32, 4, 24, 4, 4], "harm": [24, 3, 2, 6, 2, 2]}


def test_atlas_digest_is_pinned(seed_kb):
    assert atlas_digest(seed_kb) == ATLAS_SHA256


def test_a_point_outside_the_cube_is_rejected(atlases):
    with pytest.raises(ValueError):
        atlases["literal"]["case1"].signature((0.0, 10.5, 0.0))
    with pytest.raises(ValueError):
        atlases["literal"]["case1"].signature((math.nan, 1.0, 1.0))


class TestGateCut:
    def test_gain_floor_cut_is_the_last_failing_float(self):
        # 0.3 >= (10 - C)/10 from C = 7 on, and the tie at 7 passes
        assert gate_cut(Gate("autonomy", 0.3, GAIN_FLOOR)) == math.nextafter(7.0, 0.0)

    def test_loss_floor_cut_is_the_last_passing_float(self):
        # -0.5 >= (C - 10)/10 up to C = 5, and the tie at 5 passes
        assert gate_cut(Gate("wellbeing", -0.5, LOSS_FLOOR)) == 5.0

    def test_risk_cut_separates_the_two_answers(self):
        from rulebend.utility import risk_threshold

        cut = gate_cut(Gate(RISK_AXIS, 0.05, RISK_CEILING))
        assert risk_threshold(cut) < 0.05 <= risk_threshold(math.nextafter(cut, 11.0))

    def test_a_gate_that_never_changes_has_no_cut(self):
        assert gate_cut(Gate("autonomy", 2.0, GAIN_FLOOR)) is None
        assert gate_cut(Gate(RISK_AXIS, 0.0, RISK_CEILING)) is None

    def test_a_threshold_outside_its_bracket_raises(self, monkeypatch):
        # monotone at the cube's ends, but not in between
        monkeypatch.setattr(atlas_module, "gate_floor",
                            lambda floor, x: 5.0 if 2.0 < x < 3.0 else 1.0 - x / 10.0)
        with pytest.raises(AtlasError):
            gate_cut(Gate("autonomy", 0.5, GAIN_FLOOR))
