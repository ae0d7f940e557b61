"""Traced run: per-layer self time, call counts and reuse ratios.

The tracer replaces public functions of the package's layers with
wrappers, at the names their callers look them up by, so the package
itself stays unedited.  Each wrapper times its call; a call's self time
is its duration minus the durations of the wrapped calls made inside it.
Counters (distinct retrieval queries, branches taken, log bytes) are
gathered by per-target hooks whose own cost is charged to no layer.

Wrappers exist only between ``install`` and ``uninstall``, so a run
with tracing off executes the package unchanged.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple


@dataclass
class Span:
    """Accumulated timings of one wrapped target."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Counters:
    """Counts gathered by the hooks during one traced unit of work."""

    queries: Set[Tuple[float, ...]] = field(default_factory=set)
    distance_evals: int = 0
    specs: Set[object] = field(default_factory=set)
    branches: Dict[str, int] = field(default_factory=dict)
    candidates: int = 0
    fallbacks: int = 0
    log_bytes: int = 0


class Tracer:
    """Times nested calls of wrapped functions on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        # One accumulator of wrapped-child time per active call.
        self._stack: List[List[float]] = []
        self.spans: Dict[str, Span] = {}
        self.counters = Counters()

    def reset(self) -> None:
        self.spans = {name: Span() for name in self.spans}
        self.counters = Counters()

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``hook(tracer, args, result)`` after."""
        self.spans.setdefault(name, Span())
        clock = self._clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span = self.spans[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(self, args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


# ----------------------------------------------------------------------
# what is wrapped, and where
# ----------------------------------------------------------------------


def _retrieve_hook(tracer: Tracer, args: tuple, result: object) -> None:
    kb, query = args[0], args[1]
    tracer.counters.queries.add(tuple(query))
    tracer.counters.distance_evals += len(kb)


def _wellbeing_hook(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters.specs.add(result[1])


def _evaluate_hook(tracer: Tracer, args: tuple, result) -> None:
    branch = result.branch.value
    tracer.counters.branches[branch] = tracer.counters.branches.get(branch, 0) + 1


def _decide_hook(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters.candidates += len(result.blackboard.entries)
    tracer.counters.fallbacks += 1 if result.is_fallback() else 0


def _to_jsonl_hook(tracer: Tracer, args: tuple, result: str) -> None:
    tracer.counters.log_bytes += len(result.encode("utf-8"))


#: (module or class path, attribute, span name, hook).  Module-level
#: functions are patched in the module that calls them, methods on
#: their class.  ``sim.run_episode`` is where the benchmark's own grid
#: and sweep loops look the episode runner up.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("rulebend.governor", "evaluate_rules", "rules.evaluate", None),
    ("rulebend.governor", "autonomy_utility", "utility.autonomy", None),
    ("rulebend.governor", "wellbeing_utility", "utility.wellbeing", _wellbeing_hook),
    ("rulebend.governor", "evaluate", "evaluator.evaluate", _evaluate_hook),
    ("rulebend.evaluator", "behaviour_risk", "utility.risk", None),
    ("rulebend.sim", "decide", "governor.decide", _decide_hook),
    ("rulebend.cli", "run_episode", "sim.run_episode", None),
    ("rulebend.sim", "run_episode", "sim.run_episode", None),
    ("rulebend.casekb:CaseBase", "consult", "casekb.consult", None),
    ("rulebend.casekb:CaseBase", "retrieve", "casekb.retrieve", _retrieve_hook),
    ("rulebend.casekb:CaseBase", "load", "casekb.load", None),
    ("rulebend.sim:Scenario", "from_file", "sim.scenario_load", None),
    ("rulebend.sim:EpisodeLog", "to_jsonl", "sim.to_jsonl", _to_jsonl_hook),
    ("rulebend.cli", "main", "cli.main", None),
)

BRANCHES = (
    "compliant_supported",
    "noncompliant_unsupported",
    "bend_evaluated",
    "suppress_evaluated",
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Installation:
    """The wrappers of one tracer, installed until ``uninstall``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._installed: Set[str] = set()
        self._restore: List[Tuple[object, str, object]] = []

    @property
    def missing_spans(self) -> Set[str]:
        """Span names none of whose targets could be wrapped."""
        return {span for _, _, span, _ in TARGETS} - self._installed

    def install(self) -> "Installation":
        for path, attr, span_name, hook in TARGETS:
            try:
                owner = _owner(path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                print(f"warning: trace target {path}.{attr} not found; "
                      f"metrics of {span_name} report null", file=sys.stderr)
                continue
            self._installed.add(span_name)
            if isinstance(raw, classmethod):
                patched = classmethod(self.tracer.wrap(span_name, raw.__func__, hook))
            else:
                patched = self.tracer.wrap(span_name, raw, hook)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


# ----------------------------------------------------------------------
# per-layer metrics of one traced unit
# ----------------------------------------------------------------------

#: per-layer metric -> span names it needs.
_NEEDS: Dict[str, Tuple[str, ...]] = {
    "casekb.retrieve_calls": ("casekb.retrieve",),
    "casekb.retrieve_self_ms": ("casekb.retrieve",),
    "casekb.distance_evals": ("casekb.retrieve",),
    "casekb.query_reuse": ("casekb.retrieve",),
    "casekb.consult_calls": ("casekb.consult",),
    "casekb.consult_self_ms": ("casekb.consult",),
    "casekb.load_ms": ("casekb.load",),
    "utility.wellbeing_calls": ("utility.wellbeing",),
    "utility.wellbeing_self_ms": ("utility.wellbeing",),
    "utility.risk_calls": ("utility.risk",),
    "utility.risk_self_ms": ("utility.risk",),
    "utility.autonomy_self_ms": ("utility.autonomy",),
    "utility.spec_reuse": ("utility.wellbeing",),
    "rules.evaluate_calls": ("rules.evaluate",),
    "rules.evaluate_self_ms": ("rules.evaluate",),
    "evaluator.evaluate_calls": ("evaluator.evaluate",),
    "evaluator.evaluate_self_ms": ("evaluator.evaluate",),
    **{f"evaluator.branch.{b}": ("evaluator.evaluate",) for b in BRANCHES},
    "governor.decide_calls": ("governor.decide",),
    "governor.decide_self_ms": ("governor.decide",),
    "governor.candidates_per_decision": ("governor.decide",),
    "governor.fallback_ratio": ("governor.decide",),
    "sim.run_episode_calls": ("sim.run_episode",),
    "sim.run_episode_self_ms": ("sim.run_episode",),
    "sim.scenario_loads": ("sim.scenario_load",),
    "sim.scenario_load_ms": ("sim.scenario_load",),
    "sim.to_jsonl_self_ms": ("sim.to_jsonl",),
    "sim.log_bytes": ("sim.to_jsonl",),
    "cli.main_self_ms": ("cli.main",),
}

LAYER_METRICS: Tuple[str, ...] = tuple(_NEEDS) + ("trace.overhead_ratio",)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _reuse(distinct: int, calls: int) -> float:
    """Share of calls that repeat an earlier input: 1 - distinct / calls."""
    return 1.0 - distinct / calls if calls else 0.0


def unit_metrics(tracer: Tracer, missing_spans: Set[str]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of the unit just traced (trace.overhead_ratio aside).

    Metrics whose span has no installed wrapper are None.
    """
    s = defaultdict(Span, tracer.spans)
    c = tracer.counters
    ms = 1000.0
    values: Dict[str, float] = {
        "casekb.retrieve_calls": s["casekb.retrieve"].calls,
        "casekb.retrieve_self_ms": s["casekb.retrieve"].self_s * ms,
        "casekb.distance_evals": c.distance_evals,
        "casekb.query_reuse": _reuse(len(c.queries), s["casekb.retrieve"].calls),
        "casekb.consult_calls": s["casekb.consult"].calls,
        "casekb.consult_self_ms": s["casekb.consult"].self_s * ms,
        "casekb.load_ms": _ratio(s["casekb.load"].total_s * ms, s["casekb.load"].calls),
        "utility.wellbeing_calls": s["utility.wellbeing"].calls,
        "utility.wellbeing_self_ms": s["utility.wellbeing"].self_s * ms,
        "utility.risk_calls": s["utility.risk"].calls,
        "utility.risk_self_ms": s["utility.risk"].self_s * ms,
        "utility.autonomy_self_ms": s["utility.autonomy"].self_s * ms,
        "utility.spec_reuse": _reuse(len(c.specs), s["utility.wellbeing"].calls),
        "rules.evaluate_calls": s["rules.evaluate"].calls,
        "rules.evaluate_self_ms": s["rules.evaluate"].self_s * ms,
        "evaluator.evaluate_calls": s["evaluator.evaluate"].calls,
        "evaluator.evaluate_self_ms": s["evaluator.evaluate"].self_s * ms,
        **{f"evaluator.branch.{b}": c.branches.get(b, 0) for b in BRANCHES},
        "governor.decide_calls": s["governor.decide"].calls,
        "governor.decide_self_ms": s["governor.decide"].self_s * ms,
        "governor.candidates_per_decision": _ratio(c.candidates, s["governor.decide"].calls),
        "governor.fallback_ratio": _ratio(c.fallbacks, s["governor.decide"].calls),
        "sim.run_episode_calls": s["sim.run_episode"].calls,
        "sim.run_episode_self_ms": s["sim.run_episode"].self_s * ms,
        "sim.scenario_loads": s["sim.scenario_load"].calls,
        "sim.scenario_load_ms": s["sim.scenario_load"].total_s * ms,
        "sim.to_jsonl_self_ms": s["sim.to_jsonl"].self_s * ms,
        "sim.log_bytes": c.log_bytes,
        "cli.main_self_ms": s["cli.main"].self_s * ms,
    }
    return {
        name: None if set(_NEEDS[name]) & missing_spans else value
        for name, value in values.items()
    }
