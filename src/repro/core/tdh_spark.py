"""TDH truth inference as an iterative Spark DataFrame job.

This is the distributed-dataflow artifact of the reproduction. The model
and update equations are exactly those of :mod:`repro.core.tdh_local`
(and the two are asserted numerically equal in tests); the layout maps
onto Catalyst-friendly relational operators:

1. A static **expanded E-step relation** is materialized once and
   cached: one row per (claim, conditioning candidate, relationship)
   with columns ``(side, object, agent, claim, value, rel, coef)``.
   ``coef`` carries the data-dependent factor of Eq. (1)–(4)
   (``1/|G_o(v)|``, ``1/(|V_o|-|G_o(v)|-1)``, ``Pop2``, ``Pop3``); the
   non-hierarchical collapse of Eq. (2)/(4) is encoded by *two* rows
   (rel 1 and rel 2) for an exact match, which also yields the paper's
   E-step split of ``g¹``/``g²`` for ``o ∉ O_H``.
2. Each EM iteration joins that relation with the (small) parameter
   DataFrames ``mu`` and ``phi``/``psi``, computes the posterior
   responsibilities with two aggregations (the per-claim normalizer
   ``Z`` and the per-candidate / per-agent sums), and collects the
   *parameters only* (O(|candidates| + |S| + |W|) rows) back to the
   driver — the classic "big data, small parameters" iterative pattern,
   which also keeps lineage constant across iterations.

The input frames are collected once and compiled by
:func:`repro.core.candidates.compile_problem`, so malformed input raises
the same ``ValueError`` as on the local engine before any EM job runs, and
the driver-side statistics (candidates, ``|V_o|``, ``|S_o|``, the
initial ``mu``) come from the compiled problem, which is returned in
``extras["problem"]``. The expanded relation above is the independent
relational derivation of Eq. (1)–(4) that the tests compare against the
local engine's kernel. ``jobs/assign_tasks.py`` runs EAI (Algorithm 1)
locally on the collected result.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    IntegerType,
    StructField,
    StructType,
)

from repro.core.candidates import Claims, Problem, code_answers, compile_problem
from repro.core.result import InferenceResult, argmax_truths
from repro.core.tdh_local import initial_mu

_PAIR = ArrayType(
    StructType(
        [StructField("rel", IntegerType()), StructField("coef", DoubleType())]
    )
)


class TDHSpark:
    """TDH EM over Spark DataFrames (same priors/defaults as :class:`TDH`)."""

    def __init__(
        self,
        spark: SparkSession,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 100,
        tol: float = 1e-7,
    ):
        self.spark = spark
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.gamma = float(gamma)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

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
        problem = compile_problem(records.toPandas(), anc_pairs.toPandas())
        workers = None if answers is None else code_answers(problem, answers.toPandas())
        base = self._build_base(records, answers, anc_pairs).persist()
        try:
            return self._em(base, problem, workers)
        finally:
            base.unpersist()

    # ------------------------------------------------------------------
    def _build_base(
        self,
        records: DataFrame,
        answers: DataFrame | None,
        anc_pairs: DataFrame,
    ):
        """The expanded E-step relation, derived independently of the local
        engine's kernel (:func:`repro.core.candidates.expand`)."""
        cand = records.select("object", "value").distinct()
        nv = cand.groupBy("object").agg(F.count("*").cast("double").alias("nV"))
        ng = anc_pairs.groupBy("object", "value").agg(
            F.count("*").cast("double").alias("nG")
        )
        oh = anc_pairs.select("object").distinct().withColumn("oh", F.lit(True))
        cnt = records.groupBy("object", "value").agg(
            F.count("*").cast("double").alias("cnt")
        )
        genc = (
            anc_pairs.join(
                cnt.withColumnRenamed("value", "anc").withColumnRenamed(
                    "cnt", "anc_cnt"
                ),
                ["object", "anc"],
            )
            .groupBy("object", "value")
            .agg(F.sum("anc_cnt").alias("gen_cnt"))
        )
        s_per_obj = records.groupBy("object").agg(
            F.count("*").cast("double").alias("S")
        )
        # candidate-side static stats attached to each conditioning value v
        cand_stats = (
            cand.join(nv, "object")
            .join(ng, ["object", "value"], "left")
            .join(genc, ["object", "value"], "left")
            .join(oh, "object", "left")
            .join(s_per_obj, "object")
            .fillna({"nG": 0.0, "gen_cnt": 0.0, "oh": False})
        )
        is_anc = anc_pairs.select(
            "object",
            F.col("value").alias("value"),  # v (descendant, the conditioning truth)
            F.col("anc").alias("claim"),  # claimed value ∈ G_o(v)
        ).withColumn("is_anc", F.lit(True))
        claim_cnt = cnt.select(
            "object",
            F.col("value").alias("claim"),
            F.col("cnt").alias("claim_cnt"),
        )

        def expand(claims: DataFrame, agent_col: str, side: str) -> DataFrame:
            exp = (
                claims.select(
                    "object",
                    F.col(agent_col).alias("agent"),
                    F.col("value").alias("claim"),
                )
                .join(cand_stats.withColumnRenamed("value", "value"), "object")
                .join(is_anc, ["object", "value", "claim"], "left")
                .join(claim_cnt, ["object", "claim"], "left")
                .fillna({"is_anc": False, "claim_cnt": 0.0})
            )
            eq = F.col("claim") == F.col("value")
            if side == "s":  # Eq. (1)/(2): uniform ancestor / uniform wrong
                c2 = 1.0 / F.col("nG")
                c3_oh = 1.0 / (F.col("nV") - F.col("nG") - 1.0)
                c3_flat = 1.0 / (F.col("nV") - 1.0)
            else:  # Eq. (3)/(4): popularity-weighted Pop2 / Pop3
                c2 = F.col("claim_cnt") / F.col("gen_cnt")
                c3_oh = F.col("claim_cnt") / (
                    F.col("S") - F.col("cnt_v") - F.col("gen_cnt")
                )
                c3_flat = F.col("claim_cnt") / (F.col("S") - F.col("cnt_v"))
            if side == "w":
                exp = exp.join(
                    cnt.withColumnRenamed("cnt", "cnt_v"), ["object", "value"]
                )
            guard = lambda c: F.when(c > 0, c).otherwise(F.lit(0.0))  # noqa: E731
            pairs = (
                F.when(
                    eq & F.col("oh"),
                    F.array(F.struct(F.lit(1).alias("rel"), F.lit(1.0).alias("coef"))),
                )
                .when(
                    eq,  # o ∉ O_H: exact match carries phi1 + phi2
                    F.array(
                        F.struct(F.lit(1).alias("rel"), F.lit(1.0).alias("coef")),
                        F.struct(F.lit(2).alias("rel"), F.lit(1.0).alias("coef")),
                    ),
                )
                .when(
                    F.col("is_anc"),
                    F.array(
                        F.struct(F.lit(2).alias("rel"), guard(c2).alias("coef"))
                    ),
                )
                .when(
                    F.col("oh"),
                    F.array(
                        F.struct(F.lit(3).alias("rel"), guard(c3_oh).alias("coef"))
                    ),
                )
                .otherwise(
                    F.array(
                        F.struct(F.lit(3).alias("rel"), guard(c3_flat).alias("coef"))
                    )
                )
            )
            return (
                exp.withColumn("pair", F.explode(pairs.cast(_PAIR)))
                .select(
                    F.lit(side).alias("side"),
                    "object",
                    "agent",
                    "claim",
                    "value",
                    F.col("pair.rel").alias("rel"),
                    F.col("pair.coef").alias("coef"),
                )
            )

        base = expand(records, "source", "s")
        if answers is not None:
            base = base.unionByName(expand(answers, "worker", "w"))
        return base

    # ------------------------------------------------------------------
    def _em(self, base: DataFrame, p: Problem, workers: Claims | None) -> InferenceResult:
        C = len(p.cand)
        obj_of = p.obj_of_cand
        sources = p.sources.agents
        names = workers.agents if workers is not None else []
        nO_s = np.bincount(p.sources.agent, minlength=len(sources))
        nO_w = None
        W_per_obj = np.zeros(len(p.objects))
        if workers is not None:
            nO_w = np.bincount(workers.agent, minlength=len(names))
            W_per_obj = np.bincount(obj_of[workers.cid], minlength=len(p.objects)).astype(float)
        gm1 = self.gamma - 1.0
        a_sum = self.alpha.sum() - 3.0
        b_sum = self.beta.sum() - 3.0
        mu = initial_mu(p, workers, self.gamma)
        phi = pd.DataFrame(
            np.tile(self.alpha / self.alpha.sum(), (len(sources), 1)),
            columns=["p1", "p2", "p3"],
        )
        phi.insert(0, "agent", sources)
        psi = pd.DataFrame(
            np.tile(self.beta / self.beta.sum(), (len(names), 1)),
            columns=["p1", "p2", "p3"],
        )
        psi.insert(0, "agent", names)
        mu_den = p.S + W_per_obj + p.nV * gm1

        def param_long() -> pd.DataFrame:
            rows = []
            for side, frame in (("s", phi), ("w", psi)):
                for _, r in frame.iterrows():
                    for t in (1, 2, 3):
                        rows.append((side, r["agent"], t, float(r[f"p{t}"])))
            return pd.DataFrame(rows, columns=["side", "agent", "rel", "p"])

        def f_sums(mu_sums: pd.DataFrame) -> np.ndarray:
            """Per-cid sums of the responsibilities collected from Spark."""
            cid = p.index.get_indexer(pd.MultiIndex.from_frame(mu_sums[["object", "value"]]))
            return np.bincount(cid, mu_sums["f"].to_numpy(), minlength=C)

        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            mu_sums, phi_sums = self._estep_job(base, p.cand.assign(mu=mu), param_long())
            # -- M-step on the driver (parameters are small) -----------
            new_mu = (f_sums(mu_sums) + gm1) / mu_den[obj_of]
            phi = self._update_trust(phi_sums, "s", sources, nO_s, self.alpha, a_sum)
            if names:
                psi = self._update_trust(phi_sums, "w", names, nO_w, self.beta, b_sum)
            delta = float(np.max(np.abs(new_mu - mu)))
            mu = new_mu
            if delta < self.tol:
                break
        # final E-step pass at the converged parameters → Eq. (9) N/D
        mu_sums, _ = self._estep_job(base, p.cand.assign(mu=mu), param_long())
        return self._package(
            p, mu, phi, psi if names else None, f_sums(mu_sums) + gm1, mu_den, n_iter
        )

    def _estep_job(self, base: DataFrame, mu_pdf: pd.DataFrame, params: pd.DataFrame):
        """One distributed E-step: responsibilities + the two M-step sums."""
        spark = self.spark
        mu_df = spark.createDataFrame(mu_pdf)
        p_df = spark.createDataFrame(params)
        j = (
            base.join(p_df, ["side", "agent", "rel"])
            .join(mu_df, ["object", "value"])
            .withColumn("w", F.col("p") * F.col("coef") * F.col("mu"))
        )
        z = j.groupBy("side", "object", "agent").agg(F.sum("w").alias("z"))
        f = j.join(z, ["side", "object", "agent"]).withColumn(
            "f", F.col("w") / F.col("z")
        )
        f = f.persist()
        try:
            mu_sums = (
                f.groupBy("object", "value")
                .agg(F.sum("f").alias("f"))
                .toPandas()
            )
            g_sums = (
                f.groupBy("side", "agent", "rel")
                .agg(F.sum("f").alias("g"))
                .toPandas()
            )
        finally:
            f.unpersist()
        return mu_sums, g_sums

    @staticmethod
    def _update_trust(g_sums, side, agents, nO, prior, prior_sum) -> pd.DataFrame:
        g = g_sums[g_sums["side"] == side]
        piv = (
            g.pivot_table(index="agent", columns="rel", values="g", fill_value=0.0)
            .reindex(agents, fill_value=0.0)
            .reindex(columns=[1, 2, 3], fill_value=0.0)
        )
        arr = piv.to_numpy() + (prior - 1.0)
        arr = arr / (nO + prior_sum)[:, None]
        out = pd.DataFrame(arr, columns=["p1", "p2", "p3"])
        out.insert(0, "agent", agents)
        return out

    @staticmethod
    def _package(p, mu, phi, psi, N, mu_den, n_iter) -> InferenceResult:
        mu_pdf = p.cand.assign(mu=mu)
        phi_df = phi.rename(
            columns={"agent": "source", "p1": "phi1", "p2": "phi2", "p3": "phi3"}
        )
        psi_df = None
        wacc = None
        if psi is not None:
            psi_df = psi.rename(
                columns={"agent": "worker", "p1": "psi1", "p2": "psi2", "p3": "psi3"}
            )
            wacc = psi_df[["worker"]].assign(acc=psi_df["psi1"].to_numpy())
        return InferenceResult(
            truths=argmax_truths(mu_pdf),
            mu=mu_pdf,
            phi=phi_df,
            psi=psi_df,
            N=p.cand.assign(N=N),
            D=pd.DataFrame({"object": p.objects, "D": mu_den}),
            worker_accuracy=wacc,
            extras={"n_iter": n_iter, "problem": p},
        )
