"""TDH truth inference on Spark: the local engine's EM with its E-step
mapped over blocks of objects.

Every coefficient of Eq. (1)–(4) and the E-step's per-claim normaliser
depend only on the claim's object, so the E-step over all objects is the
sum of the E-steps over disjoint object ranges; only the phi/psi sums of
the M-step are global. :meth:`TDHSpark.fit` therefore:

1. collects the input frames and compiles them on the driver exactly as
   :class:`~repro.core.tdh_local.TDH` does, so malformed input raises the
   same ``ValueError`` before any EM job runs;
2. expands both sides with the same Eq. (1)–(4) kernel and cuts the
   expanded rows into ``defaultParallelism`` contiguous object ranges
   (rows are sorted by object, so each block is an array slice), which it
   parallelizes and caches;
3. runs the local engine's EM loop (``TDH._em``), whose E-step broadcasts
   (mu, phi, psi) and runs ``blocks.map(_estep_task(params)).reduce(_add)``:
   one Spark job per E-step, ``n_iter`` in all. The M-step, the SQUAREM
   extrapolation, the convergence test and the packaging (mu and Eq. (9)'s
   denominator D) are the local engine's.

The parameters stay on the driver (O(|candidates| + |S| + |W|)) and the
expanded claims on the executors, with constant lineage across
iterations. The blocks are plain numpy arrays, the task function is a
closure and the E-step's module is pickled by value, so Spark's Python
workers need numpy but not this package. ``jobs/assign_tasks.py`` runs
EAI (Algorithm 1) locally on the collected result.

Every Python task starts with ``importlib.invalidate_caches()``
(``pyspark.worker_util.setup_spark_files``), and on CPython 3.11 that
makes each ``zipimporter`` in the worker's ``sys.path_importer_cache``
re-read its archive (``pyspark.zip``, the py4j zip, a spark-core jar):
about 0.19 s per task, more than a fit's E-step arithmetic. The task
function therefore drops those entries after each block. ``sys.path_importer_cache`` is a cache that the import
system refills on demand, and ``zipimport`` keeps each archive's directory
in a cache of its own, so a later import from the archive still works;
the next task's invalidation just finds nothing to re-read.
"""
from __future__ import annotations

import sys
import zipimport

import numpy as np
import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession

from repro.core import tdh_local
from repro.core.candidates import Claims, Problem, code_answers, compile_problem, side_rows
from repro.core.result import InferenceResult
from repro.core.tdh_local import TDH, _add, _estep, _package

# Workers may not be able to import ``repro``: ship the E-step by value.
cloudpickle.register_pickle_by_value(tdh_local)


class TDHSpark(TDH):
    """TDH EM with a distributed E-step (same priors/defaults as :class:`TDH`)."""

    def __init__(
        self,
        spark: SparkSession,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 200,
        tol: float = 1e-7,
    ):
        super().__init__(alpha, beta, gamma, max_iter, tol)
        self.spark = spark

    # ------------------------------------------------------------------
    def fit(
        self,
        records: DataFrame,
        answers: DataFrame | None,
        anc_pairs: DataFrame,
    ) -> InferenceResult:
        """Run distributed EM; inputs are Spark DataFrames.

        ``records``: (object, source, value); ``answers``: (object,
        worker, value) or None; ``anc_pairs``: (object, value, anc).
        """
        answers = None if answers is None else answers.toPandas()
        return self.fit_problem(compile_problem(records.toPandas(), anc_pairs.toPandas()), answers)

    def fit_problem(self, problem: Problem, answers: pd.DataFrame | None) -> InferenceResult:
        """:meth:`fit` on a compiled problem and pandas ``answers`` (or None)."""
        workers = code_answers(problem, answers)
        sc = self.spark.sparkContext
        n = sc.defaultParallelism
        blocks = sc.parallelize(_blocks(problem, workers, n), n).cache()

        def estep(mu, phi, psi):
            params = sc.broadcast((mu, phi, psi))
            try:
                return blocks.map(_estep_task(params)).reduce(_add)
            finally:
                params.destroy()

        try:
            return _package(self._em(problem, workers, estep))
        finally:
            blocks.unpersist()


def _estep_task(params):
    """The function the E-step job maps over the blocks: :func:`_estep` of a
    block at ``params.value`` (``(mu, phi, psi)``, a broadcast), which then
    drops every zip importer from the worker's ``sys.path_importer_cache``
    so that the next task's ``importlib.invalidate_caches()`` re-reads no
    archive. A closure, so that it is pickled by value."""

    def run(block):
        out = _estep(block, *params.value)
        for path, finder in list(sys.path_importer_cache.items()):
            if isinstance(finder, zipimport.zipimporter):
                del sys.path_importer_cache[path]
        return out

    return run


def _blocks(p: Problem, workers: Claims | None, n: int) -> list:
    """Both sides' expanded rows cut into ``n`` contiguous object ranges,
    the blocks of :func:`~repro.core.tdh_local._estep` (some may be empty).
    A Spark fit ships its rows once, so it leaves ``p.source_rows`` uncached."""
    bounds = np.linspace(0, len(p.objects), n + 1).astype(int)

    def cut(claims: Claims, popularity: bool) -> list:
        row, *rest = side_rows(p, claims, popularity)
        c = np.searchsorted(p.obj_of_cand[claims.cid], bounds)  # claims are sorted by object
        r = np.searchsorted(row, c)
        return [
            (row[r0:r1] - c0, *(a[r0:r1] for a in rest))  # claim indices from 0 per block
            for c0, r0, r1 in zip(c, r, r[1:])
        ]

    src = cut(p.sources, popularity=False)
    wrk = [None] * n if workers is None else cut(workers, popularity=True)
    return list(zip(src, wrk))
