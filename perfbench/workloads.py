"""The benchmark's workloads.

Each workload builds its inputs from the seed alone (through
``repro.datagen``) in :meth:`setup`, runs one timed operation per call of
:meth:`run`, and checks that operation's output in :meth:`check`, which
the runner calls outside the timed region. ``ops_per_run`` says how many
operations (crowd rounds or Spark fits) one :meth:`run` call performs.

The program is reached through module attributes looked up at call time
(``simulate.run_crowdsourcing``, ``truthdata.birthplaces_lite``, ...), so
the traced run's wrappers see the benchmark's own calls too.
"""
from __future__ import annotations

import os
import platform
import statistics
import time

from repro.core import candidates, tdh_local, tdh_spark
from repro.datagen import truthdata
from repro.eval import metrics as M
from repro.eval import simulate

import checks

# Set-up steps that can run again in one process run this often; the median
# counts. Dataset generation takes 0.4-1.2 s, and single calls of it swing by
# a quarter on a shared machine; Spark's 2 s preparation is repeated less.
SETUP_REPEATS = 7
SPARK_PREPARE_REPEATS = 3
CROWD = {"n_workers": 10, "k": 5, "pi_p": 0.75}

_now = time.perf_counter


def _timed(fn, *args, **kwargs):
    t0 = _now()
    out = fn(*args, **kwargs)
    return out, _now() - t0


def _quality(truths, gold, hierarchy) -> dict[str, float]:
    return {
        "accuracy": M.accuracy(truths, gold),
        "gen_accuracy": M.gen_accuracy(truths, gold, hierarchy),
        "avg_distance": M.avg_distance(truths, gold, hierarchy),
    }


class Crowd:
    """``run_crowdsourcing(ds, "TDH", assigner)``: a closed loop, one client,
    each round waiting for the previous one."""

    def __init__(self, name: str, dataset: str, assigner: str, rounds: int):
        self.name, self.dataset, self.assigner = name, dataset, assigner
        self.ops_per_run = rounds
        self._first_history = None

    def config(self) -> dict:
        return {
            "dataset": self.dataset,
            "inference": "TDH",
            "assigner": self.assigner,
            "rounds_per_call": self.ops_per_run,
            **CROWD,
        }

    def setup(self, seed: int, sf: float) -> dict:
        gen = getattr(truthdata, self.dataset)
        runs = [_timed(gen, sf=sf, seed=seed) for _ in range(SETUP_REPEATS)]
        self.ds = runs[-1][0]
        self.seed = seed
        gen_s = [t for _, t in runs]
        return {
            "setup_s": statistics.median(gen_s),
            "gen_s": gen_s,
            "records": len(self.ds.records),
            "objects": int(self.ds.records["object"].nunique()),
            "sources": int(self.ds.records["source"].nunique()),
        }

    def prepare_checks(self) -> None:
        self.cands = self.ds.candidates()
        self.gold = M.map_gold_to_candidates(self.ds.gold, self.cands, self.ds.hierarchy)

    def run(self):
        return simulate.run_crowdsourcing(
            self.ds, "TDH", self.assigner, rounds=self.ops_per_run, seed=self.seed, **CROWD
        )

    def check(self, log) -> list[str]:
        problems = checks.crowd_run(
            log, self.cands, self.ops_per_run, CROWD["n_workers"], CROWD["k"]
        )
        if self._first_history is None:
            self._first_history = log.history
        else:
            problems += checks.same_history(self._first_history, log.history)
        final = log.history.iloc[-1]
        recomputed = _quality(log.final.truths, self.gold, self.ds.hierarchy)
        if any(abs(final[k] - v) > checks.TOL for k, v in recomputed.items()):
            problems.append("the last history row disagrees with the final truths")
        return problems

    def quality(self, log) -> dict[str, float]:
        final = log.history.iloc[-1]
        return {k: float(final[k]) for k in ("accuracy", "gen_accuracy", "avg_distance")}

    def info(self, log) -> dict:
        return {}

    def teardown(self) -> None:
        pass


class SparkFit:
    """One ``TDHSpark.fit`` on records and ancestor pairs, without answers,
    as ``jobs/run_tdh.py`` runs it, with the shuffle-partition count of its
    session (``jobs/_common.py``)."""

    MAX_ITER = 3
    SHUFFLE_PARTITIONS = 16
    DRIVER_MEMORY = "2g"

    def __init__(self, name: str, dataset: str):
        self.name, self.dataset = name, dataset
        self.ops_per_run = 1
        self.master = f"local[{min(4, os.cpu_count() or 1)}]"
        self.spark = None
        self._n = 0

    def config(self) -> dict:
        return {
            "dataset": self.dataset,
            "max_iter": self.MAX_ITER,
            "answers": None,
            "master": self.master,
            "shuffle_partitions": self.SHUFFLE_PARTITIONS,
            "driver_memory": self.DRIVER_MEMORY,
        }

    def _prepare(self, seed: int, sf: float):
        ds = getattr(truthdata, self.dataset)(sf=sf, seed=seed)
        cands = candidates.candidate_sets(ds.records)
        return ds, cands, candidates.hierarchical_ancestor_pairs(cands, ds.hierarchy)

    def setup(self, seed: int, sf: float) -> dict:
        runs = [_timed(self._prepare, seed, sf) for _ in range(SPARK_PREPARE_REPEATS)]
        (self.ds, self.cands, self.anc), _ = runs[-1]
        prep_s = [t for _, t in runs]
        self.spark, session_s = _timed(self._start_session)
        (self.rec_df, self.anc_df), frames_s = _timed(
            lambda: (self.spark.createDataFrame(self.ds.records), self.spark.createDataFrame(self.anc))
        )
        _, warmup_s = _timed(self._fit)
        return {
            "setup_s": statistics.median(prep_s) + session_s + frames_s + warmup_s,
            "prepare_s": prep_s,
            "session_s": session_s,
            "frames_s": frames_s,
            "warmup_fit_s": warmup_s,
            "records": len(self.ds.records),
            "objects": int(self.ds.records["object"].nunique()),
            "sources": int(self.ds.records["source"].nunique()),
            "ancestor_pairs": len(self.anc),
            "environment": self._environment(),
        }

    def prepare_checks(self) -> None:
        """The local engine's fit that every Spark fit must match."""
        self.reference = tdh_local.TDH(max_iter=self.MAX_ITER).fit(self.ds.records, None, self.anc)
        self.gold = M.map_gold_to_candidates(self.ds.gold, self.cands, self.ds.hierarchy)

    def _start_session(self):
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("perfbench")
            .master(self.master)
            .config("spark.driver.memory", self.DRIVER_MEMORY)
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions", f"-XX:-UsePerfData -Djava.io.tmpdir={os.environ['TMPDIR']}")
            .config("spark.local.dir", os.environ["SPARK_LOCAL_DIRS"])
            .config("spark.sql.warehouse.dir", os.path.join(os.environ["TMPDIR"], "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(self.SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def _environment(self) -> dict:
        import pyspark

        sc = self.spark.sparkContext
        jvm = sc._jvm
        return {
            "master": sc.master,
            "shuffle_partitions": int(self.spark.conf.get("spark.sql.shuffle.partitions")),
            "driver_memory": sc.getConf().get("spark.driver.memory"),
            "driver_heap_mb": int(jvm.java.lang.Runtime.getRuntime().maxMemory()) // (1 << 20),
            "java": jvm.java.lang.System.getProperty("java.version"),
            "pyspark": pyspark.__version__,
            "python": platform.python_version(),
        }

    def _fit(self):
        return tdh_spark.TDHSpark(self.spark, max_iter=self.MAX_ITER).fit(self.rec_df, None, self.anc_df)

    def run(self):
        self._n += 1
        group = f"perfbench-fit-{self._n}"
        self.spark.sparkContext.setJobGroup(group, "perfbench timed fit")
        return group, self._fit()

    def check(self, out) -> list[str]:
        return checks.matches_reference(out[1], self.reference)

    def quality(self, out) -> dict[str, float]:
        return _quality(out[1].truths, self.gold, self.ds.hierarchy)

    def info(self, out) -> dict:
        """Jobs, stages and tasks the fit ran, from the status tracker."""
        tracker = self.spark.sparkContext.statusTracker()
        jobs = tracker.getJobIdsForGroup(out[0])
        job_infos = [tracker.getJobInfo(j) for j in jobs]
        stages = [tracker.getStageInfo(s) for j in job_infos if j is not None for s in j.stageIds]
        ran = [s for s in stages if s is not None and s.numCompletedTasks > 0]
        return {
            "jobs": len(jobs),
            "stages": len(ran),
            "tasks": sum(s.numCompletedTasks for s in ran),
            "em_iters": int(out[1].extras["n_iter"]),
        }

    def teardown(self) -> None:
        """Stop the session and wait for the JVM it started to exit."""
        if self.spark is None:
            return
        sc = self.spark.sparkContext
        gateway = sc._gateway
        proc = getattr(gateway, "proc", None)
        self.spark.stop()
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        self.spark = None


# Rounds per run_crowdsourcing call. Table 4 runs 50, and per-round cost grows
# with the answers collected (README, "Rounds per call"). crowd-me-her runs
# all 50; crowd-eai-bp, at 2-3 s a round, runs the first 12, as 50 would not
# fit the benchmark's time budget.
WORKLOADS = {
    "crowd-eai-bp": lambda: Crowd("crowd-eai-bp", "birthplaces_lite", "EAI", rounds=12),
    "crowd-me-her": lambda: Crowd("crowd-me-her", "heritages_lite", "ME", rounds=50),
    "spark-fit-bp": lambda: SparkFit("spark-fit-bp", "birthplaces_lite"),
}
