"""Command-line harness.

Commands:
  run        simulate one scenario with one character profile
  matrix     run the 6x4 scenario/profile grid and diff it against the
             packaged reference grid
  calibrate  find the character trait triples that reproduce a target
             grid column per profile, by lookup on one trait-space atlas
             per scenario (``rulebend.atlas``); no episode runs per point
  kb-trace   show the nearest precedents for a query
  validate   check data files without running anything

Exit codes: 0 success/match, 1 invalid input, 2 mismatch, 3 runtime failure.
"""

import argparse
import csv
import io
import json
import logging
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .atlas import Atlas, build_atlas
from .casekb import CaseBase, CaseOpinion, KBError
from .governor import AssessmentTable
from .model import (
    Behaviour,
    BehaviourKind,
    CharacterProfile,
    ContextError,
    DecisionContext,
    Instruction,
    ModelError,
    ProfileError,
    ReminderState,
    json_field,
    json_optional,
    read_json_object,
    validate_profile,
)
from .rules import evaluate_rules
from .sim import (
    Scenario,
    ScenarioError,
    SignatureRegistry,
    behaviour_id,
    class_id,
    run_episode,
)
from .utility import RISK_MODES, autonomy_utility, wellbeing_utility

log = logging.getLogger("rulebend")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_RUNTIME = 3

PROFILES_FORMAT_VERSION = 2
PROFILE_ORDER = ("A", "AR", "ARW", "WR")
CASE_ORDER = tuple(f"case{i}" for i in range(1, 7))

#: qualitative trait constraints used by `calibrate`, per profile.  Each
#: entry maps trait -> (lo, hi) inclusive; `extra` is a predicate over
#: the (wellbeing, autonomy, risk) triple.
CALIBRATION_CONSTRAINTS = {
    "A": {
        "ranges": {"wellbeing": (0, 10), "autonomy": (6, 10), "risk": (0, 1)},
    },
    "AR": {
        "ranges": {"wellbeing": (0, 10), "autonomy": (6, 10), "risk": (6, 10)},
    },
    "ARW": {
        "ranges": {"wellbeing": (3, 7), "autonomy": (3, 7), "risk": (3, 7)},
        "predicate": lambda w, a, r: a > w,
    },
    "WR": {
        "ranges": {"wellbeing": (6, 10), "autonomy": (0, 10), "risk": (0, 10)},
    },
}

# short action codes for the text timeline
_TIMELINE_CODES = {
    "remind": "RM",
    "snooze": "SZ",
    "follow_up": "FU",
    "record": "RC",
    "report": "RP",
    "acknowledge_wait": "AW",
    "observe_medication_taken": "OK",
}
_RESIDENT_CODES = {"snooze": "S", "acknowledge": "A"}


def _packaged(name: str) -> Path:
    return Path(str(resources.files("rulebend").joinpath("data", name)))


def load_profiles(path: Path | str) -> Dict[str, CharacterProfile]:
    """Read a profiles file into validated CharacterProfile objects."""
    data = read_json_object(path, "profiles", ProfileError)
    try:
        if json_field(data, "format_version", int) != PROFILES_FORMAT_VERSION:
            raise ValueError(f"expected format_version {PROFILES_FORMAT_VERSION}")
        raw = json_field(data, "profiles", dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileError(f"{path}: invalid profiles file ({exc})") from exc
    if not raw:
        raise ProfileError(f"{path}: no profiles defined")
    profiles = {}
    for name, entry in raw.items():
        try:
            profile = CharacterProfile(
                name=name,
                wellbeing=json_field(entry, "wellbeing", float),
                autonomy=json_field(entry, "autonomy", float),
                risk_propensity=json_field(entry, "risk_propensity", float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"{path}: profile {name!r} invalid ({exc})") from exc
        validate_profile(profile)
        profiles[name] = profile
    return profiles


def _load_kb(path_arg: Optional[str]) -> CaseBase:
    return CaseBase.load(path_arg or _packaged("seed_kb.jsonl"))


def _load_profile_set(path_arg: Optional[str]) -> Dict[str, CharacterProfile]:
    path = Path(path_arg) if path_arg else _packaged("profiles.json")
    return load_profiles(path)


def _resolve_scenario(token: str) -> Scenario:
    """Accept a scenario file path or a packaged scenario name (case1..6)."""
    if token in CASE_ORDER and not Path(token).exists():
        return Scenario.from_file(_packaged(f"scenarios/{token}.json"))
    return Scenario.from_file(token)


def _packaged_scenarios() -> Dict[str, Scenario]:
    """The six packaged scenarios in CASE_ORDER, parsed once per command."""
    return {
        case: Scenario.from_file(_packaged(f"scenarios/{case}.json"))
        for case in CASE_ORDER
    }


def _load_expected(path_arg: Optional[str]) -> Dict[str, Dict[str, int]]:
    """A reference or target grid: an integer class for every cell."""
    path = Path(path_arg) if path_arg else _packaged("expected_matrix.json")
    data = read_json_object(path, "reference grid", ModelError)
    try:
        if json_field(data, "format_version", int) != 1:
            raise ModelError(f"{path}: not a reference grid file")
        grid = json_field(data, "grid", dict)
        return {
            case: {name: json_field(grid[case], name, int) for name in PROFILE_ORDER}
            for case in CASE_ORDER
        }
    except (KeyError, TypeError) as exc:
        raise ModelError(f"{path}: not a reference grid file ({exc})") from exc


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _utilities_csv(log_obj) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "behavior", "Au", "W", "risk", "D"])
    for rec in log_obj.steps:
        decision = rec.get("decision")
        if not decision:
            continue
        for entry in decision["entries"]:
            writer.writerow(
                [
                    rec["step"],
                    entry["behaviour"],
                    repr(entry["autonomy_utility"]),
                    repr(entry["wellbeing_utility"]),
                    repr(entry["risk"]),
                    entry["desirability"],
                ]
            )
    return buf.getvalue()


def _timeline_text(log_obj) -> str:
    steps = [rec["step"] for rec in log_obj.steps]
    resident_row, robot_row, recommend_row = [], [], []
    for rec in log_obj.steps:
        resident_row.append(_RESIDENT_CODES.get(rec["resident"], "."))
        action = rec["robot_action"]
        robot_row.append(_TIMELINE_CODES.get(action, ".") if action else ".")
        decision = rec.get("decision")
        if decision:
            code = _TIMELINE_CODES.get(decision["recommended"], "??")
            if decision["fallback"]:
                code += "*"
            recommend_row.append(code)
        else:
            recommend_row.append(".")

    def fmt(label: str, cells: List[str]) -> str:
        return f"{label:<12}| " + " ".join(f"{c:>3}" for c in cells)

    lines = [
        f"scenario: {log_obj.meta['scenario']}    profile: {log_obj.meta['profile']}"
        f"    risk mode: {log_obj.meta['risk_mode']}",
        f"terminal: {log_obj.terminal.value} (step {log_obj.terminal_step})",
        "",
        fmt("step", [str(s) for s in steps]),
        fmt("resident", resident_row),
        fmt("robot", robot_row),
        fmt("recommended", recommend_row),
        "",
        "legend: RM remind, SZ snooze granted, FU follow-up, AW wait after",
        "        acknowledgement, RC record, RP report, OK medication observed",
        "        taken, S snooze request, A acknowledgement, * fallback choice,",
        "        . no event",
    ]
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    profiles = _load_profile_set(args.profiles)
    if args.profile not in profiles:
        raise ProfileError(
            f"unknown profile {args.profile!r}; have {sorted(profiles)}"
        )
    scenario = _resolve_scenario(args.scenario)
    episode = run_episode(scenario, profiles[args.profile], kb, risk_mode=args.risk_mode)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "episode.jsonl").write_text(episode.to_jsonl(), encoding="utf-8")
    (out / "utilities.csv").write_text(_utilities_csv(episode), encoding="utf-8")
    (out / "timeline.txt").write_text(_timeline_text(episode), encoding="utf-8")
    print(
        f"{scenario.name} / {args.profile}: behaviour class {behaviour_id(episode)}, "
        f"terminal {episode.terminal.value} at step {episode.terminal_step}"
    )
    print(f"wrote episode.jsonl, utilities.csv, timeline.txt -> {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------


def _run_matrix(
    kb: CaseBase,
    profiles: Dict[str, CharacterProfile],
    risk_mode: str,
) -> Dict[str, Dict[str, int]]:
    registry = SignatureRegistry()
    assessments: AssessmentTable = {}
    grid: Dict[str, Dict[str, int]] = {}
    for case, scenario in _packaged_scenarios().items():
        row = {}
        for name in PROFILE_ORDER:
            try:
                episode = run_episode(
                    scenario, profiles[name], kb,
                    risk_mode=risk_mode, assessments=assessments,
                )
            except Exception as exc:
                raise RuntimeError(f"cell ({case}, {name}) failed: {exc}") from exc
            row[name] = behaviour_id(episode, registry)
        grid[case] = row
    return grid


def _matrix_table(grid: Dict[str, Dict[str, int]], names: Tuple[str, ...]) -> str:
    lines = ["        " + "".join(f"{n:>5}" for n in names)]
    for case in sorted(grid):
        lines.append(f"{case:<8}" + "".join(f"{grid[case][n]:>5}" for n in names))
    return "\n".join(lines) + "\n"


def cmd_matrix(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    profiles = _load_profile_set(args.profiles)
    missing = [n for n in PROFILE_ORDER if n not in profiles]
    if missing:
        raise ProfileError(f"profiles file lacks {missing}")
    expected = _load_expected(args.expected)

    try:
        grid = _run_matrix(kb, profiles, args.risk_mode)
    except RuntimeError as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME

    diff = []
    for case in CASE_ORDER:
        for name in PROFILE_ORDER:
            got = grid[case][name]
            want = expected[case][name]
            if got != want:
                diff.append(
                    {"case": case, "profile": name, "got": got, "expected": want}
                )

    table = _matrix_table(grid, PROFILE_ORDER)
    report = {"grid": grid, "expected": expected, "diff": diff, "match": not diff}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "matrix.txt").write_text(
        table + ("\ndiff: none\n" if not diff else f"\ndiff: {len(diff)} cell(s)\n"),
        encoding="utf-8",
    )
    (out / "matrix.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(table, end="")
    if diff:
        for d in diff:
            print(
                f"MISMATCH {d['case']}/{d['profile']}: "
                f"got {d['got']}, expected {d['expected']}"
            )
        return EXIT_MISMATCH
    print("all 24 cells match the reference grid")
    return EXIT_OK


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------


def _constrained_points(name: str):
    spec = CALIBRATION_CONSTRAINTS[name]
    lo_w, hi_w = spec["ranges"]["wellbeing"]
    lo_a, hi_a = spec["ranges"]["autonomy"]
    lo_r, hi_r = spec["ranges"]["risk"]
    predicate = spec.get("predicate", lambda w, a, r: True)
    for w in range(lo_w, hi_w + 1):
        for a in range(lo_a, hi_a + 1):
            for r in range(lo_r, hi_r + 1):
                if predicate(w, a, r):
                    yield (w, a, r)


def _profile_entry(point: Tuple[int, int, int]) -> Dict[str, int]:
    return dict(zip(("wellbeing", "autonomy", "risk_propensity"), point))


def _columns(atlases: Dict[str, Atlas], points):
    """(point, column) for each point: its class per case in CASE_ORDER,
    read off the atlases, with a fresh SignatureRegistry per point."""
    for point in points:
        registry = SignatureRegistry()
        yield point, {
            case: class_id(atlas.signature(point), registry)
            for case, atlas in atlases.items()
        }


def _pick(
    columns, target: Dict[str, int]
) -> Tuple[int, Tuple[int, int, int], Dict[str, int], int]:
    """(matches, point, column, points tried) of the first (point, column)
    with the most cases matching ``target``; it stops at the first full
    match, whose position is "after N grid points"."""
    best = (-1, None, {}, 0)
    for tried, (point, column) in enumerate(columns, start=1):
        matches = sum(column[case] == want for case, want in target.items())
        if matches > best[0]:
            best = (matches, point, column, tried)
            if matches == len(target):
                break
    return best


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Pick each profile's point off one atlas per scenario (see README, "calibrate")."""
    kb = _load_kb(args.kb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_lines: List[str] = []
    profiles_dict = {}

    if args.constraints_only:
        for name in PROFILE_ORDER:
            point = next(_constrained_points(name))
            profiles_dict[name] = _profile_entry(point)
            log_lines.append(f"{name}: constraint-feasible default {point}")
    else:
        target_grid = _load_expected(args.target)
        atlases = {
            case: build_atlas(scenario, kb, args.risk_mode)
            for case, scenario in _packaged_scenarios().items()
        }
        for name in PROFILE_ORDER:
            target = {case: target_grid[case][name] for case in CASE_ORDER}
            matches, point, column, tried = _pick(
                _columns(atlases, _constrained_points(name)), target
            )
            if matches == len(CASE_ORDER):
                log_lines.append(
                    f"{name}: found (C_w={point[0]}, C_au={point[1]}, C_rp={point[2]}) "
                    f"after {tried} grid points (lexicographic order; further "
                    f"solutions may exist)"
                )
                profiles_dict[name] = _profile_entry(point)
                continue
            misses = {
                case: {"got": column[case], "want": target[case]}
                for case in CASE_ORDER
                if column[case] != target[case]
            }
            log_lines.append(
                f"{name}: no trait triple in the constrained grid reproduces the "
                f"target column; nearest miss (C_w={point[0]}, C_au={point[1]}, "
                f"C_rp={point[2]}) matches {matches}/{len(CASE_ORDER)}; "
                f"mismatches: {json.dumps(misses, sort_keys=True)}"
            )

    (out / "calibration_log.txt").write_text(
        "\n".join(log_lines) + "\n", encoding="utf-8"
    )
    print("\n".join(log_lines))
    if len(profiles_dict) < len(PROFILE_ORDER):
        return EXIT_MISMATCH
    result = {"format_version": PROFILES_FORMAT_VERSION, "profiles": profiles_dict}
    (out / "calibrated_profiles.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not args.constraints_only:
        print(f"wrote calibrated_profiles.json -> {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# kb-trace
# ----------------------------------------------------------------------


def _utility_override(data: dict, key: str) -> Optional[float]:
    """The query's explicit utility ``key``, or None when it is absent."""
    value = json_optional(data, key, float)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _query_from_spec(data: dict, kb: CaseBase) -> CaseOpinion:
    """Consult the case base on a query dict.

    The query mirrors a decision: context fields plus the behaviour.  The
    utilities are computed exactly as a live decision would compute
    them, unless explicit autonomy_utility / wellbeing_utility overrides
    are present; an override must be a finite number.
    """
    try:
        ctx = DecisionContext(
            epsilon_m=json_field(data, "epsilon_m", int),
            missed_doses=json_field(data, "missed_doses", float),
            follow_ups=json_field(data, "follow_ups", int),
            reminder_state=json_field(data, "reminder_state", ReminderState),
            last_instruction=json_optional(data, "last_instruction", Instruction),
            instruction_pending=json_field(data, "instruction_pending", bool, False),
            acknowledged_without_taking=json_field(
                data, "acknowledged_without_taking", bool, False
            ),
            snoozes_granted=json_field(data, "snoozes_granted", int, 0),
            snooze_remaining=json_field(data, "snooze_remaining", int, 0),
            step=json_field(data, "step", int, 0),
        )
        behaviour = Behaviour(
            json_field(data, "behaviour", BehaviourKind),
            obeys=json_optional(data, "obeys", Instruction),
        )
        au = _utility_override(data, "autonomy_utility")
        w = _utility_override(data, "wellbeing_utility")
    except (KeyError, ValueError, TypeError) as exc:
        raise ContextError(f"invalid query spec: {exc}") from exc
    au = autonomy_utility(behaviour, ctx) if au is None else au
    w = wellbeing_utility(behaviour, ctx)[0] if w is None else w
    verdict = evaluate_rules(behaviour, ctx)
    return kb.consult(behaviour, ctx, au, w, verdict)


def cmd_kb_trace(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    if len(kb) == 0:
        print("no knowledge: the case base is empty")
        return EXIT_OK

    if args.seed_case:
        matches = [c for c in kb.cases if c.case_id == args.seed_case]
        if not matches:
            raise KBError(f"no case with id {args.seed_case!r}")
        opinion = kb.vote(matches[0].features())
    else:
        if not args.query:
            raise ContextError("kb-trace needs a query file or --seed-case")
        data = read_json_object(args.query, "query", ContextError)
        opinion = _query_from_spec(data, kb)

    print(f"{'case id':<28} {'distance':>12} {'weight':>10} {'label':>7}")
    for t in opinion.trace:
        print(f"{t.case_id:<28} {t.distance:>12.6f} {t.weight:>10.4f} {t.acceptability:>7.2f}")
    print(
        f"score: {opinion.score:.6f}  acceptable: {opinion.acceptable}  "
        f"intentions: {sorted(opinion.intentions)}"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    checked = []
    if args.kb:
        kb = _load_kb(args.kb)
        checked.append(f"case base: {len(kb)} cases OK")
    if args.profiles:
        profiles = _load_profile_set(args.profiles)
        checked.append(f"profiles: {sorted(profiles)} OK")
    if args.scenario:
        scenario = _resolve_scenario(args.scenario)
        checked.append(f"scenario: {scenario.name} OK")
    if not checked:
        raise ModelError("nothing to validate: pass --kb, --profiles or --scenario")
    print("\n".join(checked))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing / entry point
# ----------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, kb=True, profiles=True, out=True):
    if kb:
        parser.add_argument("--kb", help="case base file (default: packaged seed KB)")
    if profiles:
        parser.add_argument(
            "--profiles", help="profiles file (default: packaged profiles)"
        )
    if out:
        parser.add_argument(
            "--out", default="out", help="output directory (default: ./out)"
        )
    parser.add_argument(
        "--risk-mode",
        choices=RISK_MODES,
        default="literal",
        help="how risk is read off the outcome density (default: literal)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulebend",
        description="Deterministic governor simulations for the medication-reminder robot.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario", help="scenario file, or a packaged name (case1..case6)")
    p_run.add_argument("--profile", required=True, help="profile name, e.g. A")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_matrix = sub.add_parser("matrix", help="run the full scenario/profile grid")
    p_matrix.add_argument(
        "--expected", help="reference grid file (default: packaged grid)"
    )
    _add_common(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_cal = sub.add_parser("calibrate", help="search trait triples against a target grid")
    p_cal.add_argument("--target", help="target grid file (default: packaged grid)")
    p_cal.add_argument(
        "--constraints-only",
        action="store_true",
        help="emit constraint-feasible defaults without searching",
    )
    _add_common(p_cal, profiles=False)
    p_cal.set_defaults(func=cmd_calibrate)

    p_trace = sub.add_parser("kb-trace", help="show nearest precedents for a query")
    p_trace.add_argument("query", nargs="?", help="query spec JSON file")
    p_trace.add_argument("--seed-case", help="use an existing case id as the query")
    _add_common(p_trace, profiles=False, out=False)
    p_trace.set_defaults(func=cmd_kb_trace)

    p_val = sub.add_parser("validate", help="check data files")
    p_val.add_argument("--kb", help="case base file")
    p_val.add_argument("--profiles", help="profiles file")
    p_val.add_argument("--scenario", help="scenario file or packaged name")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ModelError, ScenarioError, KBError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        log.error("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
