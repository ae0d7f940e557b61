"""Command-line harness: exit codes, artefacts, and messages."""

import itertools
import json
import random

import pytest

import rulebend.cli as cli
from rulebend.cli import (
    CASE_ORDER,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RUNTIME,
    _packaged,
    main,
)
from rulebend import sim
from rulebend.atlas import Atlas, build_atlas
from rulebend.model import CharacterProfile
from rulebend.sim import SignatureRegistry, behaviour_id, run_episode

PACKAGED_GRID = _packaged("expected_matrix.json")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def grid_with(edit):
    """The packaged reference grid document with ``edit`` applied."""
    document = read_json(PACKAGED_GRID)
    edit(document)
    return document


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


class TestRun:
    def test_writes_the_three_artefacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "case1", "--profile", "A", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "episode.jsonl").exists()
        assert (out / "utilities.csv").exists()
        assert (out / "timeline.txt").exists()
        stdout = capsys.readouterr().out
        assert "behaviour class 1" in stdout
        assert "terminal horizon_reached at step 29" in stdout

    def test_artefact_contents(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "case1", "--profile", "A", "--out", str(out)])
        csv_lines = (out / "utilities.csv").read_text().splitlines()
        assert csv_lines[0] == "step,behavior,Au,W,risk,D"
        assert csv_lines[1].startswith("1,remind,")
        timeline = (out / "timeline.txt").read_text()
        assert "scenario: case1    profile: A    risk mode: literal" in timeline
        assert "terminal: horizon_reached (step 29)" in timeline
        for label in ("step", "resident", "robot", "recommended", "legend:"):
            assert label in timeline
        lines = (out / "episode.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["record_type"] == "meta"
        assert json.loads(lines[-1])["record_type"] == "summary"

    def test_identical_invocations_produce_identical_bytes(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        main(["run", "case2", "--profile", "ARW", "--out", str(first)])
        main(["run", "case2", "--profile", "ARW", "--out", str(second)])
        for name in ("episode.jsonl", "utilities.csv", "timeline.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_scenario_file_path_is_accepted(self, tmp_path):
        scenario = tmp_path / "custom.json"
        scenario.write_text(json.dumps({
            "format_version": 1, "name": "custom", "epsilon_m": 2,
            "missed_doses": 1.0,
            "resident": {"responses": ["acknowledge"],
                         "takes_medication": True},
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--profile", "WR",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "episode.jsonl").read_text().splitlines()[0])
        assert meta["scenario"] == "custom"

    def test_harm_mode_is_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "case1", "--profile", "AR", "--out", str(out),
                     "--risk-mode", "harm"]) == EXIT_OK
        meta = json.loads((out / "episode.jsonl").read_text().splitlines()[0])
        assert meta["risk_mode"] == "harm"

    def test_missing_case_base(self, tmp_path, caplog):
        code = main(["run", "case1", "--profile", "A",
                     "--out", str(tmp_path / "out"),
                     "--kb", str(tmp_path / "nowhere.jsonl")])
        assert code == EXIT_INVALID
        assert "case base not found" in caplog.text

    def test_unknown_profile(self, tmp_path, caplog):
        code = main(["run", "case1", "--profile", "Z",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "unknown profile" in caplog.text

    def test_unknown_scenario_token(self, tmp_path, caplog):
        code = main(["run", "case9", "--profile", "A",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("field, value, message", [
        ("missed_doses", float("inf"), "missed_doses must be finite"),
        ("missed_doses", float("nan"), "missed_doses must be finite"),
        ("missed_doses", "2.0", "missed_doses must be a JSON number"),
        ("missed_doses", True, "missed_doses must be a JSON number"),
        ("missed_doses", 10 ** 400, "missed_doses is beyond float range"),
        ("resident", [], "resident must be an object"),
        ("resident", {"takes_medication": "false"},
         "takes_medication must be a JSON boolean"),
        ("epsilon_m", 1.9, "epsilon_m must be a JSON integer"),
        ("epsilon_m", True, "epsilon_m must be a JSON integer"),
        ("max_steps", 1.9, "max_steps must be a JSON integer"),
        ("max_steps", True, "max_steps must be a JSON integer"),
        ("max_steps", "5", "max_steps must be a JSON integer"),
        ("max_steps", 30, "max_steps must be in 1..29"),
        ("name", None, "name must be a JSON string"),
        ("name", 7, "name must be a JSON string"),
        ("name", "", "scenario name must be non-empty"),
        ("resident", {"responses": {"snooze": 1}},
         "responses must be a JSON array"),
    ], ids=["inf-doses", "nan-doses", "string-doses", "bool-doses",
            "huge-doses", "list-resident", "string-flag",
            "float-epsilon", "bool-epsilon", "float-steps", "bool-steps",
            "string-steps", "steps-past-horizon", "null-name", "number-name",
            "empty-name", "object-responses"])
    def test_malformed_scenario_is_invalid_input(self, tmp_path, caplog,
                                                 field, value, message):
        spec = {"format_version": 1, "name": "bad", "epsilon_m": 1,
                "missed_doses": 0.0, field: value}
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["run", str(scenario), "--profile", "A",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert message in caplog.text


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------


class TestMatrix:
    def test_reproduces_the_packaged_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["matrix", "--out", str(out)]) == EXIT_OK
        assert "all 24 cells match the reference grid" in capsys.readouterr().out
        report = read_json(out / "matrix.json")
        assert report["match"] is True
        assert report["diff"] == []
        assert report["grid"]["case2"]["AR"] == 5
        assert "diff: none" in (out / "matrix.txt").read_text()

    def test_tampered_reference_is_a_mismatch(self, tmp_path, capsys):
        tampered = read_json(PACKAGED_GRID)
        tampered["grid"]["case1"]["A"] = 6
        target = tmp_path / "tampered.json"
        target.write_text(json.dumps(tampered), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["matrix", "--out", str(out), "--expected", str(target)])
        assert code == EXIT_MISMATCH
        stdout = capsys.readouterr().out
        assert "MISMATCH case1/A: got 1, expected 6" in stdout
        report = read_json(out / "matrix.json")
        assert report["match"] is False
        assert len(report["diff"]) == 1

    def test_crashing_cell_is_a_runtime_failure(self, tmp_path, caplog,
                                                monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("rulebend.cli.run_episode", explode)
        code = main(["matrix", "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert "cell (case1, A) failed" in caplog.text

    def test_profiles_file_must_cover_the_grid(self, tmp_path, caplog):
        sparse = tmp_path / "profiles.json"
        sparse.write_text(json.dumps({
            "format_version": 2,
            "profiles": {"A": {"wellbeing": 3, "autonomy": 7,
                               "risk_propensity": 1}},
        }), encoding="utf-8")
        code = main(["matrix", "--out", str(tmp_path / "out"),
                     "--profiles", str(sparse)])
        assert code == EXIT_INVALID
        assert "lacks" in caplog.text


@pytest.mark.parametrize("command, flag", [
    ("matrix", "--expected"), ("calibrate", "--target"),
])
@pytest.mark.parametrize("document", [
    [],
    grid_with(lambda d: d.update(format_version=True)),
    grid_with(lambda d: d["grid"].update(case1=[])),
    grid_with(lambda d: d["grid"].pop("case3")),
    grid_with(lambda d: d["grid"]["case1"].pop("A")),
    grid_with(lambda d: d["grid"]["case1"].update(A="1")),
    grid_with(lambda d: d["grid"]["case1"].update(A=True)),
    grid_with(lambda d: d["grid"]["case1"].update(A=1.0)),
], ids=["list", "bool-version", "list-row", "missing-case", "missing-cell",
        "string-cell", "bool-cell", "float-cell"])
def test_grid_file_needs_an_integer_for_every_cell(tmp_path, caplog, capsys,
                                                  command, flag, document):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(document), encoding="utf-8")
    code = main([command, "--out", str(tmp_path / "out"), flag, str(grid)])
    assert code == EXIT_INVALID
    assert "not a reference grid file" in caplog.text
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# kb-trace
# ----------------------------------------------------------------------


class TestKbTrace:
    def test_exact_seed_case_dominates_its_own_query(self, capsys):
        code = main(["kb-trace", "--seed-case", "c1-breach-follow_up-f1"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0].startswith("case id")
        first = lines[1].split()
        assert first[0] == "c1-breach-follow_up-f1"
        assert float(first[1]) == 0.0
        assert float(first[2]) == 10.0
        assert "acceptable: True" in stdout
        assert "intentions: ['autonomy']" in stdout

    def test_unknown_seed_case(self, caplog):
        assert main(["kb-trace", "--seed-case", "missing-id"]) == EXIT_INVALID
        assert "no case with id" in caplog.text

    def test_query_file(self, tmp_path, capsys):
        query = tmp_path / "query.json"
        query.write_text(json.dumps({
            "epsilon_m": 1, "missed_doses": 0.0, "follow_ups": 1,
            "reminder_state": "acknowledged",
            "last_instruction": "acknowledge",
            "acknowledged_without_taking": True,
            "snoozes_granted": 1, "step": 10,
            "behaviour": "follow_up",
        }), encoding="utf-8")
        assert main(["kb-trace", str(query)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "c1-breach-follow_up-f1" in stdout
        assert "score:" in stdout

    def test_query_must_be_an_object(self, tmp_path, caplog):
        query = tmp_path / "query.json"
        query.write_text("[]", encoding="utf-8")
        assert main(["kb-trace", str(query)]) == EXIT_INVALID
        assert "expected a JSON object" in caplog.text

    @pytest.mark.parametrize("field", ["autonomy_utility", "wellbeing_utility"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_utility_override_rejected(self, tmp_path, caplog, capsys,
                                                  field, value):
        query = tmp_path / "query.json"
        query.write_text(json.dumps({
            "epsilon_m": 1, "missed_doses": 0.0, "follow_ups": 1,
            "reminder_state": "acknowledged",
            "last_instruction": "acknowledge",
            "acknowledged_without_taking": True,
            "behaviour": "follow_up", field: value,
        }), encoding="utf-8")
        assert main(["kb-trace", str(query)]) == EXIT_INVALID
        assert f"{field} must be finite" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("field,value", [
        ("acknowledged_without_taking", "false"),
        ("instruction_pending", 0),
        ("epsilon_m", 1.9),
        ("epsilon_m", True),
        ("follow_ups", "1"),
        ("snoozes_granted", 1.0),
        ("snooze_remaining", None),
        ("step", False),
        ("missed_doses", "2.0"),
        ("missed_doses", True),
        ("autonomy_utility", "0.5"),
        ("wellbeing_utility", True),
        ("last_instruction", False),
        ("obeys", 0),
        ("obeys", {}),
    ])
    def test_query_fields_must_have_their_json_type(self, tmp_path, caplog, capsys,
                                                    field, value):
        spec = {
            "epsilon_m": 1, "missed_doses": 0.0, "follow_ups": 1,
            "reminder_state": "acknowledged",
            "last_instruction": "acknowledge",
            "acknowledged_without_taking": True,
            "behaviour": "follow_up",
        }
        spec[field] = value
        query = tmp_path / "query.json"
        query.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["kb-trace", str(query)]) == EXIT_INVALID
        assert f"{field} must be a JSON" in caplog.text
        assert capsys.readouterr().out == ""

    def test_query_file_must_exist(self, tmp_path, caplog):
        code = main(["kb-trace", str(tmp_path / "no-query.json")])
        assert code == EXIT_INVALID
        assert "query file not found" in caplog.text

    def test_needs_a_query_or_a_seed_case(self, caplog):
        assert main(["kb-trace"]) == EXIT_INVALID

    def test_empty_base_reports_no_knowledge(self, tmp_path, capsys):
        from rulebend.casekb import CaseBase

        empty = tmp_path / "empty.jsonl"
        CaseBase([]).save(empty)
        code = main(["kb-trace", "--kb", str(empty),
                     "--seed-case", "anything"])
        assert code == EXIT_OK
        assert "no knowledge: the case base is empty" in capsys.readouterr().out


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------


class TestCalibrate:
    def test_constraints_only_emits_feasible_defaults(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--constraints-only",
                     "--out", str(out)]) == EXIT_OK
        result = read_json(out / "calibrated_profiles.json")
        points = {
            name: (entry["wellbeing"], entry["autonomy"],
                   entry["risk_propensity"])
            for name, entry in result["profiles"].items()
        }
        assert points == {
            "A": (0, 6, 0), "AR": (0, 6, 6), "ARW": (3, 4, 3), "WR": (6, 0, 0)
        }
        assert "constraint-feasible default" in capsys.readouterr().out
        assert (out / "calibration_log.txt").exists()

    def test_search_recovers_trait_triples_that_reproduce_the_grid(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "A: found (C_w=3, C_au=6, C_rp=1) after 32 grid points" in stdout
        result = read_json(out / "calibrated_profiles.json")
        points = {
            name: (entry["wellbeing"], entry["autonomy"],
                   entry["risk_propensity"])
            for name, entry in result["profiles"].items()
        }
        assert points == {
            "A": (3, 6, 1), "AR": (0, 8, 6), "ARW": (3, 6, 3), "WR": (6, 0, 2)
        }
        # the recovered triples really do reproduce the reference grid
        assert main(["matrix", "--out", str(tmp_path / "check"),
                     "--profiles", str(out / "calibrated_profiles.json")
                     ]) == EXIT_OK

    def test_unreachable_target_reports_the_nearest_miss(
            self, tmp_path, capsys, monkeypatch):
        target = read_json(PACKAGED_GRID)
        target["grid"]["case1"]["A"] = 6
        target["grid"]["case2"]["A"] = 2
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(target), encoding="utf-8")
        out = tmp_path / "out"
        episodes = []

        def counted(*args, **kwargs):
            episodes.append(args)
            return run_episode(*args, **kwargs)

        # one episode per atlas cell: 24/32/4/24/4/4 for case1..case6
        monkeypatch.setattr(sim, "run_episode", counted)
        code = main(["calibrate", "--out", str(out),
                     "--target", str(target_path)])
        assert code == EXIT_MISMATCH
        assert len(episodes) == 92
        stdout = capsys.readouterr().out
        assert "A: no trait triple in the constrained grid" in stdout
        assert "nearest miss" in stdout
        assert "matches 4/6" in stdout
        assert not (out / "calibrated_profiles.json").exists()
        assert (out / "calibration_log.txt").exists()


class TestCalibrationPick:
    """Profile A's columns off the atlases, and the pick, against brute force."""

    @pytest.fixture(scope="class")
    def brute(self):
        """Profile A's 110 points with their columns from their own episodes."""
        kb = cli._load_kb(None)
        scenarios = cli._packaged_scenarios()
        points = list(cli._constrained_points("A"))
        columns = []
        for point in points:
            registry = SignatureRegistry()
            profile = CharacterProfile("A", *map(float, point))
            columns.append({
                case: behaviour_id(run_episode(scenario, profile, kb), registry)
                for case, scenario in scenarios.items()
            })
        return kb, scenarios, points, columns

    @staticmethod
    def brute_force(points, columns, target):
        """(matches, point, column, index) of the first point with the most
        matches, counting every case of every point."""
        counts = [sum(c[case] == target[case] for case in CASE_ORDER)
                  for c in columns]
        i = counts.index(max(counts))
        return counts[i], points[i], columns[i], i + 1

    @pytest.mark.parametrize("name, count, first, last", [
        ("A", 110, (0, 6, 0), (10, 10, 1)),
        ("AR", 275, (0, 6, 6), (10, 10, 10)),
        ("ARW", 50, (3, 4, 3), (6, 7, 7)),
        ("WR", 605, (6, 0, 0), (10, 10, 10)),
    ])
    def test_constrained_points_walk_each_box_lexicographically(
            self, name, count, first, last):
        points = list(cli._constrained_points(name))
        assert (len(points), points[0], points[-1]) == (count, first, last)
        # the walk order is what "after N grid points" counts
        assert points == sorted(points)
        box = cli.CALIBRATION_CONSTRAINTS[name]
        inside = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
        if name == "ARW":
            assert points == [(w, a, r) for w, a, r in inside if a > w]
        else:
            assert points == inside

    def test_atlas_columns_match_the_episodes(self, brute):
        kb, scenarios, points, columns = brute
        atlases = {case: build_atlas(scenario, kb)
                   for case, scenario in scenarios.items()}
        assert list(cli._columns(atlases, points)) == list(zip(points, columns))

    def test_columns_number_non_canonical_classes_per_point(self):
        # the two non-canonical behaviours of case1 under literal
        recorded = (((10, "follow_up"), (19, "follow_up"), (24, "record")),
                    "recorded", ())
        reported = (((10, "follow_up"), (19, "follow_up"), (24, "report")),
                    "reported", ())
        # one cut at C_w = 5: cell 0 is [0, 5], cell 1 is (5, 10]
        split = Atlas(cuts=((5.0,), (), ()),
                      cells={(0, 0, 0): recorded, (1, 0, 0): reported})
        whole = Atlas(cuts=((), (), ()), cells={(0, 0, 0): reported})
        atlases = {"case1": split, "case2": whole}
        assert list(cli._columns(atlases, [(5, 0, 0), (6, 0, 0)])) == [
            ((5, 0, 0), {"case1": 8, "case2": 9}),
            ((6, 0, 0), {"case1": 8, "case2": 8}),
        ]

    def test_pick_agrees_with_brute_force(self, brute):
        _, _, points, columns = brute
        classes = sorted({cls for c in columns for cls in c.values()})
        rng = random.Random(7)
        targets = [{case: rng.choice(classes) for case in CASE_ORDER}
                   for _ in range(200)] + columns
        for target in targets:
            assert cli._pick(zip(points, columns), target) == \
                self.brute_force(points, columns, target), target


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


class TestValidate:
    def test_validates_each_kind_of_input(self, capsys):
        assert main(["validate", "--kb", str(_packaged("seed_kb.jsonl")),
                     "--profiles", str(_packaged("profiles.json")),
                     "--scenario", "case3"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "case base: 114 cases OK" in stdout
        assert "profiles: ['A', 'AR', 'ARW', 'WR'] OK" in stdout
        assert "scenario: case3 OK" in stdout

    @pytest.mark.parametrize("field, value", [
        ("wellbeing", 30),
        ("risk_propensity", True),
        ("risk_propensity", "1"),
        ("format_version", 2.0),
        ("wellbeing", 10.5),
        ("autonomy", float("nan")),
        ("risk_propensity", float("inf")),
        ("wellbeing", float("-inf")),
    ], ids=["out-of-range", "bool-trait", "string-trait", "float-version",
            "ten-and-a-half", "nan-trait", "inf-trait", "minus-inf-trait"])
    def test_rejects_a_broken_profiles_file(self, tmp_path, field, value):
        entry = {"wellbeing": 3, "autonomy": 7, "risk_propensity": 1}
        data = {"format_version": 2, "profiles": {"A": entry}}
        (data if field == "format_version" else entry)[field] = value
        broken = tmp_path / "profiles.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", "--profiles", str(broken)]) == EXIT_INVALID

    def test_rejects_a_profile_with_an_empty_name(self, tmp_path, caplog):
        entry = {"wellbeing": 3, "autonomy": 7, "risk_propensity": 1}
        broken = tmp_path / "profiles.json"
        broken.write_text(json.dumps({"format_version": 2, "profiles": {"": entry}}),
                          encoding="utf-8")
        assert main(["validate", "--profiles", str(broken)]) == EXIT_INVALID
        assert "profile name must be non-empty" in caplog.text

    def test_rejects_a_version_1_profiles_file(self, tmp_path, caplog):
        old = tmp_path / "profiles.json"
        old.write_text(json.dumps({"format_version": 1, "profiles": {
            "A": {"wellbeing": 3, "autonomy": 7, "risk_propensity": 1,
                  "precedence": ["autonomy"]},
        }}), encoding="utf-8")
        assert main(["validate", "--profiles", str(old)]) == EXIT_INVALID
        assert "expected format_version 2" in caplog.text

    def test_rejects_a_case_base_with_a_nan_utility(self, tmp_path, caplog):
        lines = _packaged("seed_kb.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["wellbeing_utility"] = float("nan")
        lines[1] = json.dumps(record, sort_keys=True)
        kb = tmp_path / "kb.jsonl"
        kb.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--kb", str(kb)]) == EXIT_INVALID
        assert "wellbeing_utility must be finite" in caplog.text

    def test_nothing_to_validate_is_an_error(self, caplog):
        assert main(["validate"]) == EXIT_INVALID
        assert "nothing to validate" in caplog.text
