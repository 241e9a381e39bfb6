"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``repro`` modules *where their
callers look them up* (a function imported by name into another module
is wrapped in that module too), records one span per call with its
parent, and keeps everything in memory until the run writes it out.

Hot leaf functions (``eai_quality`` runs ~28k times per round) are not
recorded as spans; they are aggregated into a call count plus total and
self time. A span's self time is its duration minus the time of its
direct children, spans and leaves alike, so the self times of all spans
and leaves inside one top-level span add up to that span's duration.

A target that cannot be found (module or attribute gone) is listed in
:attr:`Recorder.absent` and skipped; it never fails the run.
"""
from __future__ import annotations

import importlib
import re
import statistics
import time
from dataclasses import dataclass

_now = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One lookup site to wrap.

    ``attr`` is ``"name"``, ``"Class.method"`` or ``"MAPPING[key]"``;
    ``span`` is ``"<layer>.<what>"`` with the layer named after the module.
    """

    module: str
    attr: str
    span: str
    leaf: bool = False


TARGETS: tuple[Target, ...] = (
    Target("repro.datagen.truthdata", "birthplaces_lite", "datagen.gen"),
    Target("repro.datagen.truthdata", "heritages_lite", "datagen.gen"),
    Target("repro.eval.simulate", "run_crowdsourcing", "simulate.run_crowdsourcing"),
    Target("repro.core.candidates", "hierarchical_ancestor_pairs", "candidates.ancestor_pairs"),
    Target("repro.eval.simulate", "hierarchical_ancestor_pairs", "candidates.ancestor_pairs"),
    Target("repro.core.candidates", "object_info", "candidates.object_info"),
    Target("repro.eval.simulate", "object_info", "candidates.object_info"),
    Target("repro.core.tdh_local", "object_info", "candidates.object_info"),
    Target("repro.core.tdh_spark", "object_info", "candidates.object_info"),
    Target("repro.core.tdh_local", "TDH.fit", "tdh_local.fit"),
    Target("repro.core.tdh_spark", "TDHSpark.fit", "tdh_spark.fit"),
    Target("repro.core.result", "InferenceResult.mu_map", "result.mu_map"),
    Target("repro.assign.common", "AssignContext.__post_init__", "assign.context"),
    Target("repro.eval.simulate", "ASSIGNERS[EAI]", "assign.eai_assign"),
    Target("repro.assign", "eai_assign", "assign.eai_assign"),
    Target("repro.assign.eai", "eai_assign", "assign.eai_assign"),
    Target("repro.assign.eai", "eai_quality", "assign.eai_quality", leaf=True),
    Target("repro.assign.eai", "u_eai", "assign.u_eai", leaf=True),
    Target("repro.eval.simulate", "ASSIGNERS[ME]", "assign.me_assign"),
    Target("repro.assign", "me_assign", "assign.me_assign"),
    Target("repro.assign.me", "me_assign", "assign.me_assign"),
    Target("repro.eval.metrics", "map_gold_to_candidates", "metrics.gold_mapping"),
    Target("repro.eval.metrics", "accuracy", "metrics.accuracy"),
    Target("repro.eval.metrics", "gen_accuracy", "metrics.gen_accuracy"),
    Target("repro.eval.metrics", "avg_distance", "metrics.avg_distance"),
)

_KEYED = re.compile(r"^(\w+)\[(\w+)\]$")


def _attrs_of(name: str, args: tuple, result) -> dict | None:
    """What a span keeps of a call besides its timing."""
    if name in ("tdh_local.fit", "tdh_spark.fit"):
        return {"n_iter": int(result.extras["n_iter"]), "max_iter": int(args[0].max_iter)}
    if name == "assign.eai_assign":
        return {"tasks": sum(len(objs) for objs in result.values())}
    return None


class Recorder:
    """Collects spans and leaf aggregates while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.op = 0
        self.spans: list[dict] = []
        self.leaves: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self.installed: set[str] = set()  # span names with at least one wrapped target
        self._stack: list[list] = []  # open frames: [child_s, span_id]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the others as absent."""
        wrapped: dict[tuple[int, str], object] = {}
        for t in targets:
            try:
                owner, key, fn = _resolve(t)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent.append(f"{t.module}:{t.attr} ({type(exc).__name__})")
                continue
            w = wrapped.get((id(fn), t.span))
            if w is None:
                w = wrapped[(id(fn), t.span)] = self._wrap(fn, t.span, t.leaf)
            self._restore.append((owner, key, fn))
            _assign(owner, key, w)
            self.installed.add(t.span)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            _assign(owner, key, fn)
        self._restore.clear()

    def _wrap(self, fn, name: str, leaf: bool):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = [0.0, rec._next_id]
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                rec._stack.pop()
                if parent is not None:
                    parent[0] += t1 - t0
            if leaf:
                agg = rec.leaves.setdefault((rec.phase, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - frame[0]
            else:
                rec.spans.append(
                    {
                        "id": frame[1],
                        "parent": parent[1] if parent is not None else None,
                        "phase": rec.phase,
                        "op": rec.op,
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "self": t1 - t0 - frame[0],
                        "attrs": _attrs_of(name, args, result),
                    }
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------
    def spans_named(self, name: str, phase: str = "op") -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["phase"] == phase]

    def self_s(self, prefix: str, phase: str = "op") -> float:
        """Total self time of spans and leaves whose name starts with ``prefix``."""
        total = sum(s["self"] for s in self.spans if s["phase"] == phase and s["name"].startswith(prefix))
        total += sum(a[2] for (ph, n), a in self.leaves.items() if ph == phase and n.startswith(prefix))
        return total

    def leaf(self, name: str, phase: str = "op") -> tuple[int, float]:
        calls, total, _ = self.leaves.get((phase, name), (0, 0.0, 0.0))
        return calls, total

    def round_times(self) -> list[float]:
        """Crowd round wall times: from one round's ``AssignContext`` to the next
        (the last round ends with its ``run_crowdsourcing`` call)."""
        out: list[float] = []
        for run in self.spans_named("simulate.run_crowdsourcing"):
            starts = sorted(
                s["start"] for s in self.spans_named("assign.context") if s["parent"] == run["id"]
            )
            bounds = starts + [run["end"]]
            out += [b - a for a, b in zip(bounds, bounds[1:])]
        return out

    def dump(self) -> dict:
        return {
            "absent_targets": self.absent,
            "spans": self.spans,
            "leaves": [
                {"phase": ph, "name": n, "calls": a[0], "total_s": a[1], "self_s": a[2]}
                for (ph, n), a in sorted(self.leaves.items())
            ],
        }


def _resolve(t: Target):
    """(owner, key, current function) of a lookup site."""
    owner = importlib.import_module(t.module)
    m = _KEYED.match(t.attr)
    if m:
        mapping = getattr(owner, m.group(1))
        return mapping, ("item", m.group(2)), mapping[m.group(2)]
    *path, last = t.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, ("attr", last), getattr(owner, last)


def _assign(owner, key: tuple[str, str], value) -> None:
    kind, name = key
    if kind == "item":
        owner[name] = value
    else:
        setattr(owner, name, value)


# Per-layer metric -> the span it is derived from (absent when no target of
# that span could be wrapped). Times are seconds per operation (crowd round
# or Spark fit) of the traced pass; a layer that runs only during set-up
# (dataset generation; ancestor pairs on the Spark workload) reports
# seconds per call there instead.
LAYER_SOURCES = {
    "datagen.gen_s": "datagen.gen",
    "candidates.ancestor_pairs_s": "candidates.ancestor_pairs",
    "candidates.object_info_s": "candidates.object_info",
    "candidates.object_info_calls": "candidates.object_info",
    "tdh_local.fit_s": "tdh_local.fit",
    "tdh_local.fit_calls": "tdh_local.fit",
    "tdh_local.fit_self_s": "tdh_local.fit",
    "tdh_local.em_iters": "tdh_local.fit",
    "tdh_local.capped_fits": "tdh_local.fit",
    "tdh_spark.fit_self_s": "tdh_spark.fit",
    "tdh_spark.em_iters": "tdh_spark.fit",
    "result.mu_map_s": "result.mu_map",
    "assign.context_s": "assign.context",
    "assign.eai_assign_self_s": "assign.eai_assign",
    "assign.eai_quality_s": "assign.eai_quality",
    "assign.eai_quality_calls": "assign.eai_quality",
    "assign.u_eai_s": "assign.u_eai",
    "assign.eai_evals_per_task": "assign.eai_assign",
    "assign.me_assign_s": "assign.me_assign",
    "metrics.s": "metrics.accuracy",
    "simulate.self_s": "simulate.run_crowdsourcing",
    "simulate.round_p50_s": "assign.context",
    "simulate.round_max_s": "assign.context",
    "simulate.rounds": "assign.context",
}


def layer_metrics(rec: Recorder, n_ops: int, fit_infos: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass of ``n_ops`` operations.

    ``fit_infos`` holds the Spark status-tracker counts of each traced fit.
    Returns the values and the names of metrics whose layer is absent.
    """
    per_op = 1.0 / max(n_ops, 1)
    fit_infos = [i for i in fit_infos if i]
    fits = rec.spans_named("tdh_local.fit")
    spark_fits = rec.spans_named("tdh_spark.fit")
    q_calls, q_s = rec.leaf("assign.eai_quality")
    tasks = sum(s["attrs"]["tasks"] for s in rec.spans_named("assign.eai_assign"))
    rounds = rec.round_times()
    spark_iters = sum(i["em_iters"] for i in fit_infos)

    def setup_or_op(name: str) -> float:
        if rec.spans_named(name):
            return rec.self_s(name) * per_op
        calls = rec.spans_named(name, "setup")
        return rec.self_s(name, "setup") / len(calls) if calls else 0.0

    def mean(xs) -> float:
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    values = {
        "datagen.gen_s": setup_or_op("datagen.gen"),
        "candidates.ancestor_pairs_s": setup_or_op("candidates.ancestor_pairs"),
        "candidates.object_info_s": rec.self_s("candidates.object_info") * per_op,
        "candidates.object_info_calls": len(rec.spans_named("candidates.object_info")) * per_op,
        "tdh_local.fit_s": sum(s["end"] - s["start"] for s in fits) * per_op,
        "tdh_local.fit_calls": len(fits) * per_op,
        "tdh_local.fit_self_s": rec.self_s("tdh_local.fit") * per_op,
        "tdh_local.em_iters": mean(s["attrs"]["n_iter"] for s in fits),
        "tdh_local.capped_fits": sum(
            s["attrs"]["n_iter"] >= s["attrs"]["max_iter"] for s in fits
        ) * per_op,
        "tdh_spark.fit_self_s": rec.self_s("tdh_spark.fit") * per_op,
        "tdh_spark.em_iters": mean(s["attrs"]["n_iter"] for s in spark_fits),
        "tdh_spark.jobs": mean(i["jobs"] for i in fit_infos),
        "tdh_spark.stages": mean(i["stages"] for i in fit_infos),
        "tdh_spark.tasks": mean(i["tasks"] for i in fit_infos),
        "tdh_spark.jobs_per_iter": sum(i["jobs"] for i in fit_infos) / spark_iters if spark_iters else 0.0,
        "result.mu_map_s": rec.self_s("result.mu_map") * per_op,
        "assign.context_s": rec.self_s("assign.context") * per_op,
        "assign.eai_assign_self_s": rec.self_s("assign.eai_assign") * per_op,
        "assign.eai_quality_s": q_s * per_op,
        "assign.eai_quality_calls": q_calls * per_op,
        "assign.u_eai_s": rec.leaf("assign.u_eai")[1] * per_op,
        "assign.eai_evals_per_task": q_calls / tasks if tasks else 0.0,
        "assign.me_assign_s": rec.self_s("assign.me_assign") * per_op,
        "metrics.s": rec.self_s("metrics.") * per_op,
        "simulate.self_s": rec.self_s("simulate.") * per_op,
        "simulate.round_p50_s": statistics.median(rounds) if rounds else 0.0,
        "simulate.round_max_s": max(rounds, default=0.0),
        "simulate.rounds": float(len(rounds)),
    }
    absent = [m for m, span in LAYER_SOURCES.items() if span not in rec.installed]
    return values, absent
