"""The three workloads: what one operation is, and how its output is checked.

Each workload has the same shape, so ``run.py`` can drive any of them:

* ``setup()`` loads what the program needs before its first decision;
* ``prepare(i)`` builds the inputs of operation ``i`` (untimed);
* ``op(args)`` is one timed operation;
* ``record(args, result)`` keeps what the checks need (untimed);
* ``unit()`` is the fixed work of one traced unit, as op arguments;
* ``check()`` returns one line per failed output check.

grid       one operation is the packaged 6 x 4 grid, run the way the
           ``matrix`` command runs it, compared with the reference grid.
calibrate  one operation is ``rulebend calibrate`` against the packaged
           grid with two cells of profile A changed, which no trait
           triple reaches, so the command searches to its nearest miss.
sweep      one operation is an episode of a fresh, seeded scenario with a
           real-valued character against a seeded 2,000-case base,
           serialised with ``to_jsonl``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import gen
import oracle

#: Decision traces the KNN oracle checks per run.
ORACLE_SAMPLE = 40


class Context:
    """Paths and seed shared by every workload of one run."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.data = root / "src" / "rulebend" / "data"
        self.bench_data = Path(__file__).resolve().parent / "data"

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"rulebend-perfbench:{self.seed}:{stream}")


def _decisions(log) -> int:
    return sum(1 for record in log.steps if record.get("decision"))


class Workload:
    """Defaults shared by the workloads; see the module doc."""

    name = ""
    op_label = ""
    unit_label = ""
    decisions_per_op = 0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.problems: List[str] = []
        self.kb_path = ctx.data / "seed_kb.jsonl"

    def write_inputs(self) -> None:
        """Generate input files; not part of the program's set-up."""

    def generator_record(self) -> Dict[str, object]:
        return {"case_base": self.kb_path.name,
                "case_base_sha256": hashlib.sha256(self.kb_path.read_bytes()).hexdigest()}

    def reload(self) -> None:
        """Load the case base again (the traced run times the load)."""
        from rulebend.casekb import CaseBase

        CaseBase.load(self.kb_path)

    def prepare(self, index: int):
        return None

    def unit(self) -> List[object]:
        return [None]

    def check(self) -> List[str]:
        return self.problems


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------


class Grid(Workload):
    """The reference grid: 6 packaged scenarios x 4 profiles."""

    name = "grid"
    op_label = "one 24-cell grid (grid_s)"
    unit_label = "one grid"

    def setup(self) -> None:
        from rulebend import cli
        from rulebend.casekb import CaseBase

        reference = json.loads((self.ctx.data / "expected_matrix.json").read_text())
        self.expected = reference["grid"]
        self.profile_names = tuple(reference["profiles"])
        self.scenario_paths = tuple(
            self.ctx.data / "scenarios" / f"{name}.json" for name in reference["scenarios"]
        )
        self.kb = CaseBase.load(self.kb_path)
        self.profiles = cli.load_profiles(self.ctx.data / "profiles.json")

    def op(self, args, keep_logs: bool = False):
        from rulebend import sim

        registry = sim.SignatureRegistry()
        grid: Dict[str, Dict[str, int]] = {}
        logs = []
        for path in self.scenario_paths:
            scenario = sim.Scenario.from_file(path)
            row = grid.setdefault(scenario.name, {})
            for name in self.profile_names:
                log = sim.run_episode(scenario, self.profiles[name], self.kb, risk_mode="literal")
                row[name] = sim.behaviour_id(log, registry)
                if keep_logs:
                    logs.append(log)
        return (grid, logs) if keep_logs else grid

    def warmup(self) -> None:
        grid, logs = self.op(None, keep_logs=True)
        self.record(None, grid)
        self.decisions_per_op = sum(_decisions(log) for log in logs)
        case_file = oracle.CaseFile(self.kb_path.read_text(encoding="utf-8"))
        self.problems += oracle.check(
            case_file, [log.steps for log in logs], self.ctx.seed, ORACLE_SAMPLE
        )

    def record(self, args, result) -> None:
        if result is not None and result != self.expected:
            self.problems.append(f"grid differs from expected_matrix.json: {result}")


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------

#: What the nearest-miss calibrate must print (exit code 2).
CALIBRATE_LINES = (
    "A: no trait triple in the constrained grid reproduces the target column; "
    "nearest miss (C_w=0, C_au=6, C_rp=0) matches 4/6",
    "AR: found (C_w=0, C_au=8, C_rp=6)",
    "ARW: found (C_w=3, C_au=6, C_rp=3)",
    "WR: found (C_w=6, C_au=0, C_rp=2)",
)
CALIBRATE_EXIT = 2


class UnexpectedExit(Exception):
    """A command returned another exit code than the reference run."""


class Calibrate(Workload):
    """The nearest-miss ``calibrate`` command."""

    name = "calibrate"
    op_label = "one nearest-miss calibrate command (calibrate_s)"
    unit_label = "one calibrate command"

    def setup(self) -> None:
        target = json.loads((self.ctx.data / "expected_matrix.json").read_text())
        target["grid"]["case1"]["A"] = 6
        target["grid"]["case2"]["A"] = 2
        self.target = self.ctx.work / "calibrate_target.json"
        self.target.write_text(json.dumps(target), encoding="utf-8")
        self.out = self.ctx.work / "calibrate_out"

    def op(self, args):
        from rulebend import cli

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(
                ["calibrate", "--target", str(self.target), "--out", str(self.out)]
            )
        if code != CALIBRATE_EXIT:
            raise UnexpectedExit(f"calibrate exited {code}: {stdout.getvalue()!r}")
        return stdout.getvalue()

    def warmup(self) -> None:
        self.record(None, self.op(None))
        self._oracle()

    def record(self, args, result) -> None:
        if result is None:
            return
        missing = [line for line in CALIBRATE_LINES if line not in result]
        if missing:
            self.problems.append(f"calibrate output lacks {missing}: {result!r}")

    def _oracle(self) -> None:
        """KNN oracle on seeded episodes from calibrate's search space."""
        from rulebend import sim
        from rulebend.casekb import CaseBase
        from rulebend.model import CharacterProfile

        kb = CaseBase.load(self.kb_path)
        rng = self.ctx.rng("calibrate-oracle")
        steps = []
        for _ in range(6):
            scenario = sim.Scenario.from_file(
                self.ctx.data / "scenarios" / f"case{rng.randint(1, 6)}.json"
            )
            traits = [float(rng.randint(0, 10)) for _ in range(3)]
            profile = CharacterProfile("oracle", *traits)
            steps.append(sim.run_episode(scenario, profile, kb).steps)
        case_file = oracle.CaseFile(self.kb_path.read_text(encoding="utf-8"))
        self.problems += oracle.check(case_file, steps, self.ctx.seed, ORACLE_SAMPLE)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

#: Episodes 0..DIGEST_EPISODES-1 of a seed are the untimed warm-up; the
#: sha256 of their concatenated logs is stored for the default seed.
DIGEST_EPISODES = 8
#: Episodes of one traced unit (the next ones after the warm-up).
UNIT_EPISODES = 40
#: Timed episodes kept (by seeded reservoir sampling) for the re-run
#: and oracle checks.
KEPT_EPISODES = 8


class Sweep(Workload):
    """Distinct seeded scenarios against a large synthetic case base."""

    name = "sweep"
    op_label = "one episode with its to_jsonl (episode_ms)"
    unit_label = f"{UNIT_EPISODES} episodes"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.kb_path = ctx.work / "sweep_kb.jsonl"
        self.decisions = 0
        self._seen = 0
        self._kept: List[Tuple[int, str]] = []
        self._keep_rng = ctx.rng("sweep-keep")

    def write_inputs(self) -> None:
        seed_text = (self.ctx.data / "seed_kb.jsonl").read_text(encoding="utf-8")
        data = gen.case_base_bytes(seed_text, self.ctx.seed)
        self.kb_path.write_bytes(data)
        self.kb_sha256 = hashlib.sha256(data).hexdigest()
        self.case_file = oracle.CaseFile(data.decode("utf-8"))

    def generator_record(self) -> Dict[str, object]:
        return {"params": gen.PARAMS, "case_base_sha256": self.kb_sha256,
                "warmup_log_sha256": getattr(self, "log_sha256", None)}

    def setup(self) -> None:
        from rulebend.casekb import CaseBase

        self.kb = CaseBase.load(self.kb_path)

    def prepare(self, index: int):
        """Inputs of timed episode ``index`` (after the warm-up episodes)."""
        return self._inputs(DIGEST_EPISODES + index)

    def _inputs(self, population_index: int):
        from rulebend import sim
        from rulebend.model import CharacterProfile, validate_profile

        spec = gen.scenario_spec(self.ctx.seed, population_index)
        scenario = sim.Scenario.from_dict(spec["scenario"])
        profile = CharacterProfile(scenario.name, *spec["traits"])
        validate_profile(profile)
        return population_index, scenario, profile, spec["risk_mode"]

    def op(self, args):
        from rulebend import sim

        _, scenario, profile, risk_mode = args
        log = sim.run_episode(scenario, profile, self.kb, risk_mode=risk_mode)
        return log, log.to_jsonl()

    def warmup(self) -> None:
        digest = hashlib.sha256()
        for index in range(DIGEST_EPISODES):
            _, text = self.op(self._inputs(index))
            digest.update(text.encode("utf-8"))
        self.log_sha256 = digest.hexdigest()
        stored = json.loads((self.ctx.bench_data / "sweep_digest.json").read_text())
        if self.ctx.seed == stored["seed"]:
            for key, got in (("base_sha256", self.kb_sha256), ("log_sha256", self.log_sha256)):
                if got != stored[key]:
                    self.problems.append(f"sweep {key} {got} != stored {stored[key]}")

    def record(self, args, result) -> None:
        if result is None:
            return
        log, text = result
        self.decisions += _decisions(log)
        # Seeded reservoir sample of the timed episodes.
        self._seen += 1
        if len(self._kept) < KEPT_EPISODES:
            self._kept.append((args[0], text))
        else:
            slot = self._keep_rng.randrange(self._seen)
            if slot < KEPT_EPISODES:
                self._kept[slot] = (args[0], text)

    def unit(self) -> List[object]:
        return [self.prepare(i) for i in range(UNIT_EPISODES)]

    def check(self) -> List[str]:
        steps = []
        for index, text in self._kept:
            _, again = self.op(self._inputs(index))
            if again != text:
                self.problems.append(f"sweep episode {index}: re-run log differs")
            steps.append(
                [r for r in map(json.loads, text.splitlines()) if r["record_type"] == "step"]
            )
        self.problems += oracle.check(self.case_file, steps, self.ctx.seed, ORACLE_SAMPLE)
        return self.problems


WORKLOADS = {cls.name: cls for cls in (Grid, Calibrate, Sweep)}


def setup_first_decision(workload: str, root: Path, kb_path: Path, seed: int) -> None:
    """The program's set-up up to its first decision, as a user pays it.

    Loads the case base, the character and the scenarios, then runs the
    first scenario for a single step, which takes the first decision.
    """
    from rulebend import cli, sim
    from rulebend.casekb import CaseBase
    from rulebend.model import CharacterProfile

    data = root / "src" / "rulebend" / "data"
    kb = CaseBase.load(kb_path)
    if workload == "sweep":
        spec = gen.scenario_spec(seed, 0)
        scenario = sim.Scenario.from_dict(spec["scenario"])
        profile = CharacterProfile(scenario.name, *spec["traits"])
    else:
        scenarios = [
            sim.Scenario.from_file(path) for path in sorted((data / "scenarios").glob("*.json"))
        ]
        scenario = scenarios[0]
        profile = cli.load_profiles(data / "profiles.json")["A"]
    sim.run_episode(replace(scenario, max_steps=1), profile, kb)
