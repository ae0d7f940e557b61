"""Self-tests of the benchmark (not of the package).

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from rulebend.casekb import CaseBase  # noqa: E402
from rulebend.sim import Scenario, run_episode  # noqa: E402
from rulebend.model import CharacterProfile  # noqa: E402

SEED_KB = ROOT / "src" / "rulebend" / "data" / "seed_kb.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------


def test_case_base_is_a_function_of_the_seed(tmp_path):
    seed_text = SEED_KB.read_text(encoding="utf-8")
    first = gen.case_base_bytes(seed_text, 7)
    assert first == gen.case_base_bytes(seed_text, 7)
    assert first != gen.case_base_bytes(seed_text, 8)
    path = tmp_path / "kb.jsonl"
    path.write_bytes(first)
    assert len(CaseBase.load(path)) == gen.BASE_SIZE  # every case validated


def test_scenario_population_is_seeded_distinct_and_valid():
    specs = [gen.scenario_spec(3, i) for i in range(50)]
    assert specs == [gen.scenario_spec(3, i) for i in range(50)]
    assert specs != [gen.scenario_spec(4, i) for i in range(50)]
    assert len({json.dumps(s, sort_keys=True) for s in specs}) == 50
    for spec in specs:
        scenario = Scenario.from_dict(spec["scenario"])
        assert 0.0 <= scenario.missed_doses < 4.0
        assert 1 <= len(scenario.resident.responses) <= 4
        assert all(0.0 <= t <= 10.0 for t in spec["traits"])


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children_on_a_toy_call_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        clock.now += 1.0
        leaf_w()

    def root():
        clock.now += 3.0
        middle_w()
        clock.now += 0.5

    def count_hook(t, args, result):
        clock.now += 100.0  # a hook's own time is charged to no span

    leaf_w = tracer.wrap("leaf", leaf)
    middle_w = tracer.wrap("middle", middle, hook=count_hook)
    tracer.wrap("root", root)()

    spans = tracer.spans
    assert (spans["leaf"].calls, spans["leaf"].total_s, spans["leaf"].self_s) == (2, 4.0, 4.0)
    assert (spans["middle"].total_s, spans["middle"].self_s) == (6.0, 2.0)
    assert (spans["root"].total_s, spans["root"].self_s) == (109.5, 3.5)


def test_missing_trace_target_reports_null(monkeypatch, capsys):
    targets = tracing.TARGETS + (("rulebend.casekb:CaseBase", "no_such_method", "casekb.gone", None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.setitem(tracing._NEEDS, "casekb.retrieve_calls", ("casekb.gone",))
    original = CaseBase.retrieve
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer).install()
    try:
        assert CaseBase.retrieve is not original
        metrics = tracing.unit_metrics(tracer, installation.missing_spans)
    finally:
        installation.uninstall()
    assert CaseBase.retrieve is original
    assert metrics["casekb.retrieve_calls"] is None
    assert metrics["casekb.consult_calls"] == 0
    assert "no_such_method not found" in capsys.readouterr().err


# ----------------------------------------------------------------------
# KNN oracle
# ----------------------------------------------------------------------


def test_oracle_accepts_real_traces_and_rejects_a_reordered_one():
    kb = CaseBase.load(SEED_KB)
    case_file = oracle.CaseFile(SEED_KB.read_text(encoding="utf-8"))
    scenario = Scenario.from_file(ROOT / "src" / "rulebend" / "data" / "scenarios" / "case2.json")
    steps = run_episode(scenario, CharacterProfile("p", 5.0, 5.0, 5.0), kb).steps
    assert oracle.check(case_file, [steps], seed=0, sample=1000) == []
    for record in steps:
        if record["decision"]:
            trace = record["decision"]["entries"][0]["opinion"]["trace"]
            trace[0], trace[1] = trace[1], trace[0]
            break
    assert len(oracle.check(case_file, [steps], seed=0, sample=1000)) == 1


# ----------------------------------------------------------------------
# printed metrics match BENCHMARK.json
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
