"""Acceptance gate: twelve end-to-end guarantees, one test function each.

Every numeric expectation here is either checked against an independent
arbitrary-precision oracle (mpmath at 50 significant digits), against
adaptive quadrature, against a brute-force reimplementation, or against
frozen full-precision constants recorded from the oracle runs.
"""

import dataclasses
import json
import random
import time

import mpmath as mp
from scipy import integrate

from rulebend.casekb import (
    Case,
    CaseBase,
    CaseOpinion,
    case_weight,
    distance,
    feature_vector,
)
from rulebend.cli import CASE_ORDER, PROFILE_ORDER, _resolve_scenario, _run_matrix
from rulebend.evaluator import Branch, evaluate, render_explanation, situation_risk
from rulebend.model import (
    Behaviour,
    BehaviourKind,
    CharacterProfile,
    DecisionContext,
    GammaSpec,
    Instruction,
    ReminderState,
    RuleVerdict,
)
from rulebend.sim import Scenario, ResidentConfig, Terminal, run_episode
from rulebend.utility import (
    UTILITY_GRID,
    autonomy_utility,
    behaviour_risk,
    gamma_pdf,
    pmax_utility,
    risk_threshold,
    scale_param,
    shape_param,
    situation_spec,
    thresholds,
    value_thresholds,
)

from conftest import breach_context
from grid_digest import GRID_LOGS_SHA256, grid_logs_digest


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def mp_pdf(x: float, shape: float, scale: float) -> mp.mpf:
    """Arbitrary-precision shifted gamma density (shift -1), 50 digits."""
    xs, a, b = mp.mpf(x), mp.mpf(shape), mp.mpf(scale)
    v = mp.mpf(-1)
    if xs <= v:
        return mp.mpf(0)
    z = (xs - v) / b
    return mp.power(z, a - 1) * mp.exp(-z) / (b * mp.gamma(a))


def mp_grid_argmax(shape: float, scale: float) -> float:
    """Exhaustive 41-point argmax of the oracle density, later ties win."""
    best_x, best_p = None, mp.mpf(-1)
    for x in UTILITY_GRID:
        p = mp_pdf(x, shape, scale)
        if p >= best_p:
            best_x, best_p = x, p
    return best_x


def reachable_specs():
    """Density parameter pairs an episode can actually produce."""
    doses = set()
    for base in (0.0, 2.0):                      # scenario missed doses
        for snoozes in range(5):                 # situation drift
            doses.add(base + snoozes / 8.0)
        for f in range(7):                       # behaviour conversions
            doses.update((base + f / 8.0, base + f / 3.0, base + f / 4.0))
        doses.add(base + 1.0)                    # cycle closure
    return [
        GammaSpec(shape_param(eps), scale_param(dose))
        for eps in (1, 2, 3)
        for dose in sorted(doses)
    ]


# ----------------------------------------------------------------------
# 1. the 6 x 4 reference grid, reproduced exactly, in under ten seconds
# ----------------------------------------------------------------------

REFERENCE_GRID = {
    "case1": {"A": 1, "AR": 2, "ARW": 2, "WR": 3},
    "case2": {"A": 4, "AR": 5, "ARW": 4, "WR": 6},
    "case3": {"A": 6, "AR": 6, "ARW": 6, "WR": 6},
    "case4": {"A": 1, "AR": 7, "ARW": 1, "WR": 6},
    "case5": {"A": 6, "AR": 6, "ARW": 6, "WR": 6},
    "case6": {"A": 6, "AR": 6, "ARW": 6, "WR": 6},
}


def test_c01_behaviour_grid_reproduced_exactly(seed_kb, profiles, expected_grid):
    start = time.perf_counter()
    grid = _run_matrix(seed_kb, profiles, "literal")
    elapsed = time.perf_counter() - start
    assert grid == REFERENCE_GRID
    assert expected_grid == REFERENCE_GRID  # the packaged file agrees
    assert len(grid) == 6 and all(len(row) == 4 for row in grid.values())
    assert elapsed < 10.0, f"matrix took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# 2. autonomy constants, exact over the whole finite input lattice
# ----------------------------------------------------------------------


def test_c02_autonomy_constants_exact_everywhere():
    kinds = list(BehaviourKind)
    # with an instruction pending: obedience 1, anything else -0.7
    for instruction in Instruction:
        state = (ReminderState.SNOOZED if instruction is Instruction.SNOOZE
                 else ReminderState.ACKNOWLEDGED)
        for f in range(11):
            ctx = DecisionContext(1, 0.0, f, state, instruction, True,
                                  False, 0, 0, 1)
            for kind in kinds:
                assert autonomy_utility(Behaviour(kind), ctx) == -0.7
                obeying = Behaviour(kind, obeys=instruction)
                assert autonomy_utility(obeying, ctx) == 1.0
                other = (Instruction.ACKNOWLEDGE
                         if instruction is Instruction.SNOOZE
                         else Instruction.SNOOZE)
                assert autonomy_utility(Behaviour(kind, obeys=other), ctx) == -0.7
    # without one: the per-kind constants, follow-ups exact tenths
    expected_follow_up = [0.0, -0.1, -0.2, -0.3, -0.4, -0.5,
                          -0.6, -0.7, -0.8, -0.9, -1.0]
    constants = {
        BehaviourKind.REMIND: 0.0,
        BehaviourKind.SNOOZE: 0.0,
        BehaviourKind.RECORD: 0.5,
        BehaviourKind.REPORT: -0.7,
        BehaviourKind.ACK_WAIT: 0.0,
        BehaviourKind.RESTRAIN: -1.0,
    }
    for f in range(11):
        ctx = DecisionContext(1, 0.0, f, ReminderState.ISSUED, None,
                              False, False, 0, 0, 1)
        assert (autonomy_utility(Behaviour(BehaviourKind.FOLLOW_UP), ctx)
                == expected_follow_up[f])
        for kind, value in constants.items():
            assert autonomy_utility(Behaviour(kind), ctx) == value


# ----------------------------------------------------------------------
# 3. outcome density against the 50-digit oracle, and unit mass
# ----------------------------------------------------------------------


def test_c03_density_matches_oracle_and_integrates_to_one():
    mp.mp.dps = 50
    rng = random.Random(73214)
    for _ in range(1000):
        shape = rng.uniform(1.0, 12.0)
        scale = rng.uniform(0.005, 0.5)
        x = rng.uniform(-1.2, 1.2)
        got = gamma_pdf(x, GammaSpec(shape, scale))
        want = float(mp_pdf(x, shape, scale))
        assert abs(got - want) <= 1e-9, (shape, scale, x)

    for spec in reachable_specs():
        pdf = lambda x: gamma_pdf(x, spec)  # noqa: E731
        mode = -1.0 + (spec.shape - 1.0) * spec.scale
        interior = min(max(mode, -1.0 + 1e-9), 0.99)
        head, _ = integrate.quad(pdf, -1.0, 1.0, points=[interior], limit=200)
        tail, _ = integrate.quad(pdf, 1.0, float("inf"))
        assert abs((head + tail) - 1.0) <= 1e-6, (spec.shape, spec.scale)


# ----------------------------------------------------------------------
# 4. shape and scale parameter formulas
# ----------------------------------------------------------------------


def test_c04_shape_and_scale_formulas():
    assert abs(shape_param(1) - 10.0) <= 1e-12
    assert abs(shape_param(2) - 4.5) <= 1e-12
    assert abs(shape_param(3) - 1.65) <= 1e-12
    assert abs(scale_param(0.0) - (mp.e ** mp.mpf("-2.65") + mp.mpf("0.01"))) <= 1e-12


# ----------------------------------------------------------------------
# 5. most-probable-value lookup: oracle argmax and skew monotonicity
# ----------------------------------------------------------------------


def test_c05_peak_value_matches_oracle_and_skews_with_severity():
    mp.mp.dps = 50
    rng = random.Random(90125)
    for _ in range(500):
        shape = rng.uniform(1.0, 12.0)
        scale = rng.uniform(0.005, 0.5)
        assert pmax_utility(GammaSpec(shape, scale)) == mp_grid_argmax(shape, scale)

    doses = [k * 0.25 for k in range(17)]  # 0.0 .. 4.0
    for eps in (1, 2, 3):
        peaks = [pmax_utility(GammaSpec(shape_param(eps), scale_param(d)))
                 for d in doses]
        assert all(a >= b for a, b in zip(peaks, peaks[1:])), eps
    for d in doses:
        by_eps = [pmax_utility(GammaSpec(shape_param(eps), scale_param(d)))
                  for eps in (1, 2, 3)]
        assert by_eps[0] >= by_eps[1] >= by_eps[2], d


# ----------------------------------------------------------------------
# 6. character thresholds: formula agreement and monotone risk ladder
# ----------------------------------------------------------------------


def test_c06_threshold_formulas_and_monotonicity():
    import math

    for c in range(11):
        want_risk = (math.exp(c / 4.17) - 1.0) / 10.0
        assert abs(risk_threshold(float(c)) - want_risk) <= 1e-12
        gain, loss = value_thresholds(float(c))
        assert abs(gain - (10.0 - c) / 10.0) <= 1e-12
        assert abs(loss - (c - 10.0) / 10.0) <= 1e-12
    assert risk_threshold(0.0) == 0.0
    ladder = [risk_threshold(float(c)) for c in range(11)]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))

    for w in range(0, 11, 2):
        for a in range(0, 11, 2):
            for r in range(0, 11, 2):
                profile = CharacterProfile("P", float(w), float(a), float(r))
                bundle = thresholds(profile)
                assert bundle["risk_ceiling"] == risk_threshold(float(r))
                assert (bundle["wellbeing"]["gain_floor"],
                        bundle["wellbeing"]["loss_floor"]) == value_thresholds(float(w))
                assert (bundle["autonomy"]["gain_floor"],
                        bundle["autonomy"]["loss_floor"]) == value_thresholds(float(a))


# ----------------------------------------------------------------------
# 7. desirability evaluation: structural properties over random inputs
# ----------------------------------------------------------------------


def _random_context(rng):
    eps = rng.choice((1, 2, 3))
    d = rng.choice((0.0, 0.5, 1.0, 2.0, round(rng.uniform(0.0, 4.0), 3)))
    f = rng.randrange(7)
    s = rng.randrange(5)
    step = rng.randrange(1, 30)
    archetype = rng.randrange(5)
    if archetype == 0:      # breach after a fruitless acknowledgement
        return DecisionContext(eps, d, f, ReminderState.ACKNOWLEDGED,
                               Instruction.ACKNOWLEDGE, False, True, s, 0, step)
    if archetype == 1:      # snooze request on the table
        return DecisionContext(eps, d, f, ReminderState.SNOOZED,
                               Instruction.SNOOZE, True, False, s, 0, step)
    if archetype == 2:      # acknowledgement on the table
        return DecisionContext(eps, d, f, ReminderState.ACKNOWLEDGED,
                               Instruction.ACKNOWLEDGE, True, False, s, 0, step)
    if archetype == 3:      # snooze window ran out
        return DecisionContext(eps, d, f, ReminderState.SNOOZED,
                               Instruction.SNOOZE, False, False, s, 0, step)
    return DecisionContext(eps, d, f, ReminderState.ISSUED,
                           None, False, False, s, 0, step)


_INTENTION_CHOICES = (frozenset(), frozenset({"wellbeing"}),
                      frozenset({"autonomy"}),
                      frozenset({"wellbeing", "autonomy"}))
_VERDICT_CHOICES = ((), (1,), (2,), (1, 2))


def test_c07_evaluation_properties_hold_on_ten_thousand_random_inputs():
    rng = random.Random(411613)
    for trial in range(10_000):
        ctx = _random_context(rng)
        behaviour = Behaviour(rng.choice(list(BehaviourKind)))
        ids = rng.choice(_VERDICT_CHOICES)
        verdict = RuleVerdict(permissible=not ids, violated_rule_ids=ids)
        score = rng.random()
        opinion = CaseOpinion(
            acceptable=score >= 0.5,
            score=score,
            intentions=rng.choice(_INTENTION_CHOICES),
            trace=(),
        )
        w_pref, a_pref, r_pref = (rng.randrange(11), rng.randrange(11),
                                  rng.randrange(11))
        profile = CharacterProfile("R", float(w_pref), float(a_pref),
                                   float(r_pref))
        # an unused draw that keeps the seeded input sequence unchanged
        rng.choice(("wellbeing", "autonomy"))
        au = round(rng.uniform(-1.0, 1.0), 6)
        w = round(rng.uniform(-1.0, 1.0), 6)
        mode = rng.choice(("literal", "harm"))

        result = evaluate(behaviour, situation_risk(ctx, mode), profile,
                          verdict, opinion, au, w)

        # totality: a defined verdict for every input, no exceptions
        assert result.desirability in (0, 1)
        assert isinstance(result.branch, Branch)
        assert 1 <= result.template_id <= 9
        assert result.explanation

        # no bending without precedent support
        if not verdict.permissible and not opinion.acceptable:
            assert result.desirability == 0
        if not verdict.permissible and result.desirability == 1:
            assert opinion.acceptable

        # more risk appetite never turns a yes into a no
        if r_pref < 10:
            braver = dataclasses.replace(
                profile, risk_propensity=float(r_pref + 1))
            again = evaluate(behaviour, situation_risk(ctx, mode), braver,
                             verdict, opinion, au, w)
            assert result.desirability <= again.desirability

        # raising one value weight moves the verdict in the direction
        # its gate implies: easier for a bend's target value, stricter
        # for values the character newly refuses to see reduced
        tag = rng.choice(("wellbeing", "autonomy"))
        pref = w_pref if tag == "wellbeing" else a_pref
        if pref < 10:
            bumped = dataclasses.replace(profile, **{tag: float(pref + 1)})
            shifted = evaluate(behaviour, situation_risk(ctx, mode), bumped,
                               verdict, opinion, au, w)
            if result.branch is Branch.BEND_EVALUATED:
                if tag in opinion.intentions:
                    assert result.desirability <= shifted.desirability
                else:
                    assert result.desirability >= shifted.desirability
            elif result.branch is Branch.SUPPRESS_EVALUATED:
                if tag in opinion.intentions:
                    assert result.desirability >= shifted.desirability
                else:
                    assert result.desirability == shifted.desirability
            else:
                assert result.desirability == shifted.desirability


# ----------------------------------------------------------------------
# 8. retrieval equals brute force on random bases; exact step-up weights
# ----------------------------------------------------------------------


def test_c08_retrieval_matches_brute_force_on_random_bases():
    assert case_weight(0.1) == 10.0
    assert case_weight(0.5) == 2.0

    rng = random.Random(55001)
    states = list(ReminderState)
    kinds = [BehaviourKind.REMIND, BehaviourKind.SNOOZE,
             BehaviourKind.FOLLOW_UP, BehaviourKind.RECORD,
             BehaviourKind.REPORT, BehaviourKind.ACK_WAIT]

    def random_point():
        return dict(
            epsilon_m=rng.choice((1, 2, 3)),
            missed_doses=round(rng.uniform(0.0, 5.0), 4),
            follow_ups=rng.randrange(6),
            reminder_state=rng.choice(states),
            acknowledged_without_taking=rng.random() < 0.5,
            behaviour=rng.choice(kinds),
            autonomy_utility=round(rng.uniform(-1.0, 1.0), 4),
            wellbeing_utility=round(rng.uniform(-1.0, 1.0), 4),
        )

    for base_idx in range(200):
        size = rng.randrange(1, 501)
        cases = [
            Case(case_id=f"b{base_idx}-{i}", acceptability=rng.random(),
                 intention=("autonomy",), **random_point())
            for i in range(size)
        ]
        kb = CaseBase(cases)
        point = random_point()
        query = feature_vector(
            point["epsilon_m"], point["missed_doses"], point["follow_ups"],
            point["reminder_state"], point["acknowledged_without_taking"],
            point["behaviour"], point["autonomy_utility"],
            point["wellbeing_utility"],
        )
        k = rng.randrange(1, 8)
        brute = sorted(
            ((distance(query, c.features()), c.case_id) for c in cases)
        )[:k]
        got = [(d, c.case_id) for c, d in kb.retrieve(query, k=k)]
        assert got == brute


# ----------------------------------------------------------------------
# 9. canonical explanation wording, byte for byte
# ----------------------------------------------------------------------

CANONICAL_WORDINGS = {
    1: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. Since it increases "
        "autonomy values greatly, while not reducing the other values "
        "wellbeing by a considerable amount, and the outcome is within "
        "accepted risk levels, deemed accepted by the PSRB system."
    ),
    2: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since the "
        "action outcomes introduce a high risk, deemed not accepted by "
        "the PSRB system."
    ),
    3: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. Since it "
        "decreases wellbeing values by a considerable amount, the action "
        "is deemed unacceptable by the system"
    ),
    4: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. Although the value "
        "tradeoff is satisfactory, the risk taken by the action is not "
        "acceptable to bend the rule."
    ),
    5: (
        "The action breaks the rules 2. However, this action in this "
        "context is considered desirable by experts. But, the PSRB "
        "system suggests that the value tradeoff is not satisfactory to "
        "bend the rule."
    ),
    6: (
        "The action does not break any rules. However, this action in "
        "this context is considered undesirable by experts. But, the "
        "PSRB system suggests that the value tradeoff is not "
        "satisfactory to bend the rule."
    ),
}


def test_c09_explanations_byte_match_the_canonical_wordings():
    for template_id, expected in CANONICAL_WORDINGS.items():
        intentions = (frozenset({"wellbeing"}) if template_id == 3
                      else frozenset({"autonomy"}))
        rule_ids = (2,) if template_id in (1, 4, 5) else ()
        rendered = render_explanation(template_id, rule_ids=rule_ids,
                                      intentions=intentions)
        assert rendered == expected, f"template {template_id}"


# ----------------------------------------------------------------------
# 10. byte determinism and decision replay from the serialized log
# ----------------------------------------------------------------------


def _replay(jsonl: str, profiles):
    records = [json.loads(line) for line in jsonl.splitlines()]
    meta = records[0]
    profile = profiles[meta["profile"]]
    replayed = 0
    for record in records[1:-1]:
        decision = record.get("decision")
        if not decision:
            continue
        c = decision["context"]
        ctx = DecisionContext(
            epsilon_m=c["epsilon_m"],
            missed_doses=c["missed_doses"],
            follow_ups=c["follow_ups"],
            reminder_state=ReminderState(c["reminder_state"]),
            last_instruction=(Instruction(c["last_instruction"])
                              if c["last_instruction"] else None),
            instruction_pending=c["instruction_pending"],
            acknowledged_without_taking=c["acknowledged_without_taking"],
            snoozes_granted=c["snoozes_granted"],
            snooze_remaining=c["snooze_remaining"],
            step=c["step"],
        )
        for entry in decision["entries"]:
            behaviour = Behaviour(
                BehaviourKind(entry["behaviour"]),
                obeys=Instruction(entry["obeys"]) if entry["obeys"] else None,
            )
            verdict = RuleVerdict(
                permissible=entry["rule_permissible"],
                violated_rule_ids=tuple(entry["violated_rules"]),
            )
            opinion = CaseOpinion(
                acceptable=entry["opinion"]["acceptable"],
                score=entry["opinion"]["score"],
                intentions=frozenset(entry["opinion"]["intentions"]),
                trace=(),
            )
            result = evaluate(
                behaviour, situation_risk(ctx, meta["risk_mode"]), profile,
                verdict, opinion,
                entry["autonomy_utility"], entry["wellbeing_utility"],
            )
            assert result.desirability == entry["desirability"]
            assert result.template_id == entry["template_id"]
            assert result.branch.value == entry["branch"]
            assert result.risk == entry["risk"]
            assert result.explanation == entry["explanation"]
            replayed += 1
    return replayed


def test_c10_runs_are_byte_identical_and_replayable(seed_kb, profiles):
    for case in CASE_ORDER:
        scenario = _resolve_scenario(case)
        for name in PROFILE_ORDER:
            first = run_episode(scenario, profiles[name], seed_kb).to_jsonl()
            second = run_episode(scenario, profiles[name], seed_kb).to_jsonl()
            assert first == second, (case, name)
            assert _replay(first, profiles) > 0, (case, name)

    harm = run_episode(_resolve_scenario("case1"), profiles["AR"], seed_kb,
                       risk_mode="harm").to_jsonl()
    assert _replay(harm, profiles) > 0


def test_c10_grid_logs_match_their_pinned_digest(seed_kb, profiles):
    assert grid_logs_digest(seed_kb, profiles, shared_table=False) == GRID_LOGS_SHA256


def test_c10_grid_logs_through_a_shared_table_match_the_pinned_digest(seed_kb, profiles):
    assert grid_logs_digest(seed_kb, profiles, shared_table=True) == GRID_LOGS_SHA256


# ----------------------------------------------------------------------
# 11. timing rules, read off dedicated scenario logs
# ----------------------------------------------------------------------


def test_c11_timing_rules_visible_in_the_logs(seed_kb, profiles):
    alternating = run_episode(_resolve_scenario("case1"), profiles["A"], seed_kb)
    by_step = {r["step"]: r for r in alternating.steps}

    # one-step response lag: reminder at 1, scripted answer at 2
    assert by_step[1]["robot_action"] == "remind"
    assert by_step[2]["resident"] == "snooze"
    assert by_step[6]["robot_action"] == "follow_up"
    assert by_step[7]["resident"] == "acknowledge"

    # a granted snooze suspends decisions for exactly three steps
    assert by_step[2]["robot_action"] == "snooze"
    assert [by_step[s]["waiting"] for s in (3, 4, 5)] == ["snoozing"] * 3
    assert by_step[6]["decision"] is not None

    # an acknowledgement is inspected for exactly two steps
    assert by_step[7]["robot_action"] == "acknowledge_wait"
    assert [by_step[s]["waiting"] for s in (8, 9)] == ["inspecting"] * 2
    assert by_step[10]["decision"] is not None

    # the episode horizon is 29 steps
    assert alternating.terminal is Terminal.HORIZON_REACHED
    assert alternating.terminal_step == 29
    assert alternating.steps[-1]["step"] == 29

    # patience runs out at the third follow-up: the candidate set expands
    stalling = run_episode(
        Scenario(name="stall", epsilon_m=1, missed_doses=0.0,
                 resident=ResidentConfig(responses=(Instruction.SNOOZE,))),
        profiles["A"], seed_kb)
    expanded = [(r["step"], r["decision"]) for r in stalling.steps
                if r["decision"] and r["decision"]["expanded"]]
    assert expanded
    first_step, first_decision = expanded[0]
    assert first_step == 21
    assert first_decision["context"]["follow_ups"] == 3
    assert len(first_decision["candidates"]) == 3

    # a resident who takes the dose ends the episode without escalation
    taking = run_episode(
        Scenario(name="takes", epsilon_m=1, missed_doses=0.0,
                 resident=ResidentConfig(responses=(Instruction.ACKNOWLEDGE,),
                                         takes_medication=True)),
        profiles["A"], seed_kb)
    assert taking.terminal is Terminal.MEDICATION_TAKEN
    assert taking.terminal_step == 5


# ----------------------------------------------------------------------
# 12. harm-mode risk separates characters and severity classes
# ----------------------------------------------------------------------


def test_c12_harm_risk_discriminates(profiles):
    ctx = breach_context(epsilon_m=1, missed_doses=0.0, follow_ups=3,
                         snoozes=2, step=19)
    spec = situation_spec(ctx)
    harm = behaviour_risk(spec, mode="harm")
    assert harm == 0.7258676239763759  # frozen from the oracle scan
    assert risk_threshold(1.0) < harm <= risk_threshold(9.0)
    assert harm != behaviour_risk(spec, mode="literal")

    # the highest severity class exceeds even the top of the ladder
    ceiling = risk_threshold(10.0)
    for base in (0.0, 2.0):
        for snoozes in range(5):
            worst = GammaSpec(shape_param(3), scale_param(base + snoozes / 8.0))
            assert behaviour_risk(worst, mode="harm") > ceiling

    # consequence: the adventurous character may close the cycle early,
    # the cautious one may not — same rules, same precedent, same values
    verdict = RuleVerdict(permissible=False, violated_rule_ids=(2,))
    opinion = CaseOpinion(acceptable=True, score=1.0,
                          intentions=frozenset({"autonomy"}), trace=())
    record = Behaviour(BehaviourKind.RECORD)
    adventurous = evaluate(record, situation_risk(ctx, "harm"), profiles["AR"],
                           verdict, opinion, 0.5, -0.5)
    cautious = evaluate(record, situation_risk(ctx, "harm"), profiles["A"],
                        verdict, opinion, 0.5, -0.5)
    assert adventurous.desirability == 1 and adventurous.template_id == 1
    assert cautious.desirability == 0 and cautious.template_id == 4
