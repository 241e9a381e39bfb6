"""Spark TDH engine: equivalence with the reference engine + oracle checks."""
import numpy as np
import pandas as pd
import pytest

from repro.assign.common import AssignContext
from repro.assign.eai import eai_assign
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
from repro.core.tdh_spark import TDHSpark
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def problem():
    ds = birthplaces_lite(sf=0.01, seed=0)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    answers = pd.DataFrame(
        [
            (o, f"w{i % 3}", v)
            for i, (o, v) in enumerate(
                cand.groupby("object").head(1).head(12).to_numpy()
            )
        ],
        columns=["object", "worker", "value"],
    )
    return ds, cand, anc, answers


@pytest.fixture(scope="module")
def fits25(spark, problem):
    """Both engines at ``max_iter=25`` on the records of ``problem``."""
    ds, cand, anc, _ = problem
    loc = TDH(max_iter=25).fit(ds.records, None, anc)
    sp = TDHSpark(spark, max_iter=25).fit(
        spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
    )
    return loc, sp


class TestSparkLocalEquivalence:
    def test_sources_only(self, spark, problem):
        ds, cand, anc, _ = problem
        loc = TDH(max_iter=40).fit(ds.records, None, anc)
        sp = TDHSpark(spark, max_iter=40).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        m = loc.mu.merge(sp.mu, on=["object", "value"], suffixes=("_l", "_s"))
        assert len(m) == len(loc.mu)
        assert float((m["mu_l"] - m["mu_s"]).abs().max()) < 1e-9
        p = loc.phi.merge(sp.phi, on="source", suffixes=("_l", "_s"))
        for c in ("phi1", "phi2", "phi3"):
            assert float((p[f"{c}_l"] - p[f"{c}_s"]).abs().max()) < 1e-9
        t = loc.truths.merge(sp.truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()

    def test_with_answers(self, spark, problem):
        ds, cand, anc, answers = problem
        loc = TDH(max_iter=30).fit(ds.records, answers, anc)
        sp = TDHSpark(spark, max_iter=30).fit(
            spark.createDataFrame(ds.records),
            spark.createDataFrame(answers),
            spark.createDataFrame(anc),
        )
        m = loc.mu.merge(sp.mu, on=["object", "value"], suffixes=("_l", "_s"))
        assert float((m["mu_l"] - m["mu_s"]).abs().max()) < 1e-9
        q = loc.psi.merge(sp.psi, on="worker", suffixes=("_l", "_s"))
        for c in ("psi1", "psi2", "psi3"):
            assert float((q[f"{c}_l"] - q[f"{c}_s"]).abs().max()) < 1e-9

    def test_nd_tables_match(self, fits25):
        loc, sp = fits25
        n = loc.N.merge(sp.N, on=["object", "value"], suffixes=("_l", "_s"))
        assert float((n["N_l"] - n["N_s"]).abs().max()) < 1e-8
        d = loc.D.merge(sp.D, on="object", suffixes=("_l", "_s"))
        assert float((d["D_l"] - d["D_s"]).abs().max()) < 1e-12

    def test_eai_assignment_matches(self, fits25):
        """The path of jobs/assign_tasks.py: Algorithm 1 on a Spark fit."""

        def assign(res):
            return eai_assign(
                AssignContext(
                    result=res,
                    workers=[f"w{i}" for i in range(4)],
                    k=5,
                    answered={},
                    rng=np.random.default_rng(0),
                )
            )

        loc, sp = fits25
        assert assign(sp) == assign(loc)

    def test_heritages_dataset(self, spark):
        ds = heritages_lite(sf=0.02, seed=1)
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        loc = TDH(max_iter=25).fit(ds.records, None, anc)
        sp = TDHSpark(spark, max_iter=25).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        t = loc.truths.merge(sp.truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()


_NY_USA = [("o1", "s1", "NY"), ("o1", "s2", "USA")]


@pytest.mark.parametrize("engine", ["local", "spark"])
@pytest.mark.parametrize(
    "records,answers,match",
    [
        (_NY_USA + [("o1", "s1", "USA")], None, r"at most one claim per \(object, source\)"),
        (_NY_USA, [("o1", "w1", "NY"), ("o1", "w1", "USA")], r"at most one claim per \(object, worker\)"),
        (_NY_USA, [("o1", "w1", "LA")], "'LA' not a candidate of 'o1'"),
    ],
    ids=["duplicate-source", "duplicate-worker", "answer-outside-candidates"],
)
def test_engines_reject_malformed_input(request, engine, records, answers, match):
    records = pd.DataFrame(records, columns=["object", "source", "value"])
    anc = pd.DataFrame([("o1", "NY", "USA")], columns=["object", "value", "anc"])
    if answers is not None:
        answers = pd.DataFrame(answers, columns=["object", "worker", "value"])
    with pytest.raises(ValueError, match=match):
        if engine == "local":
            TDH(max_iter=2).fit(records, answers, anc)
        else:
            spark = request.getfixturevalue("spark")
            TDHSpark(spark, max_iter=2).fit(
                spark.createDataFrame(records),
                None if answers is None else spark.createDataFrame(answers),
                spark.createDataFrame(anc),
            )


class TestSparkAggregationsOracle:
    """DuckDB oracle checks for the Spark aggregations TDH builds on."""

    def test_candidate_sets(self, spark, problem):
        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        got = rec.select("object", "value").distinct()
        assert_equivalent(
            got,
            "SELECT DISTINCT object, value FROM records",
            records=ds.records,
        )

    def test_claim_counts(self, spark, problem):
        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        got = rec.groupBy("object", "value").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got,
            "SELECT object, value, COUNT(*) AS n FROM records GROUP BY object, value",
            records=ds.records,
        )

    def test_sources_per_object(self, spark, problem):
        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        got = rec.groupBy("object").count().withColumnRenamed("count", "s_o")
        assert_equivalent(
            got,
            "SELECT object, COUNT(*) AS s_o FROM records GROUP BY object",
            records=ds.records,
        )

    def test_gen_cnt_join(self, spark, problem):
        """The Pop2 denominator: sum of ancestor claim counts per candidate."""
        ds, cand, anc, _ = problem
        if not len(anc):
            pytest.skip("no ancestor pairs at this scale")
        rec = spark.createDataFrame(ds.records)
        anc_df = spark.createDataFrame(anc)
        from pyspark.sql import functions as F

        cnt = rec.groupBy("object", "value").agg(F.count("*").alias("cnt"))
        got = (
            anc_df.join(
                cnt.withColumnRenamed("value", "anc").withColumnRenamed("cnt", "anc_cnt"),
                ["object", "anc"],
            )
            .groupBy("object", "value")
            .agg(F.sum("anc_cnt").alias("gen_cnt"))
        )
        assert_equivalent(
            got,
            """
            SELECT a.object, a.value, SUM(c.cnt) AS gen_cnt
            FROM anc a
            JOIN (SELECT object, value, COUNT(*) AS cnt FROM records GROUP BY 1,2) c
              ON c.object = a.object AND c.value = a.anc
            GROUP BY a.object, a.value
            """,
            records=ds.records,
            anc=anc,
        )


class TestVoteSparkOracle:
    def test_vote_counts_match_duckdb(self, spark, problem):
        from repro.baselines.vote import vote_spark

        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        got = vote_spark(rec).select("object", "value", "n")
        assert_equivalent(
            got,
            "SELECT object, value, COUNT(*) AS n FROM records GROUP BY object, value",
            records=ds.records,
        )

    def test_vote_spark_matches_local(self, spark, problem):
        from repro.baselines.vote import vote, vote_spark
        from repro.core.result import argmax_truths

        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        mu = vote_spark(rec).select("object", "value", "mu").toPandas()
        sp_truths = argmax_truths(mu)
        loc = vote(ds.records)
        t = loc.truths.merge(sp_truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()
