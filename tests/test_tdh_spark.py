"""Spark TDH engine: equivalence with the reference engine + oracle checks."""
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark import cloudpickle

from repro.assign.common import AssignContext
from repro.assign.eai import eai_assign
from repro.core.candidates import (
    candidate_sets,
    code_answers,
    compile_problem,
    expand,
    hierarchical_ancestor_pairs,
)
from repro.core.tdh_local import TDH, _add, _estep, initial_mu
from repro.core.tdh_spark import TDHSpark, _blocks, _estep_task
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
                    answers=None,
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

    def test_convergence_reported_alike(self, fits25):
        loc, sp = fits25
        assert sp.extras["converged"] == loc.extras["converged"]
        assert sp.extras["n_iter"] == loc.extras["n_iter"]
        a, b = loc.extras["trace"], sp.extras["trace"]
        assert a.shape == b.shape
        assert np.abs(a.to_numpy() - b.to_numpy()).max() < 1e-9


_NY_USA = [("o1", "s1", "NY"), ("o1", "s2", "USA")]


def _jobs_in_group(spark, group, run):
    """``run()`` and the number of Spark jobs it started."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def test_one_spark_job_per_em_iteration(spark, problem):
    """Each EM iteration is one job and there is no other (N is mu·D of
    the last map); the rest are the collects of the input frames."""
    ds, cand, anc, answers = problem
    frames = [spark.createDataFrame(x) for x in (ds.records, answers, anc)]
    _, collects = _jobs_in_group(spark, "tdh-collect", lambda: [f.toPandas() for f in frames])
    res, jobs = _jobs_in_group(spark, "tdh-fit", lambda: TDHSpark(spark, max_iter=5).fit(*frames))
    assert res.extras["n_iter"] == 5
    assert jobs - collects == res.extras["n_iter"]


def test_empty_blocks(spark):
    """One object cut into ``defaultParallelism`` blocks: all but one are
    empty, and the fit still equals the local engine's."""
    records = pd.DataFrame(_NY_USA, columns=["object", "source", "value"])
    anc = pd.DataFrame([("o1", "NY", "USA")], columns=["object", "value", "anc"])
    answers = pd.DataFrame([("o1", "w1", "NY")], columns=["object", "worker", "value"])
    loc = TDH(max_iter=10).fit(records, answers, anc)
    sp = TDHSpark(spark, max_iter=10).fit(
        *(spark.createDataFrame(x) for x in (records, answers, anc))
    )
    for a, b, cols in (
        (loc.mu, sp.mu, ["mu"]),
        (loc.D, sp.D, ["D"]),
        (loc.phi, sp.phi, ["phi1", "phi2", "phi3"]),
        (loc.psi, sp.psi, ["psi1", "psi2", "psi3"]),
    ):
        assert a.drop(columns=cols).equals(b.drop(columns=cols))
        assert np.abs(a[cols].to_numpy() - b[cols].to_numpy()).max() < 1e-9
    assert sp.extras["converged"] == loc.extras["converged"]


def test_block_estep_needs_no_repro_on_workers(tmp_path, problem):
    """Spark's Python workers may not be able to import ``repro`` (the
    benchmark and ``jobs/`` put ``src`` on the driver's path only): the
    functions the E-step job ships, the task it maps and the ``_add`` it
    reduces with, must unpickle and run without it."""
    ds, cand, anc, answers = problem
    p = compile_problem(ds.records, anc)
    workers = code_answers(p, answers)
    block = _blocks(p, workers, 2)[0]
    mu = initial_mu(p, workers, 2.0)
    phi = np.full((len(p.sources.agents), 3), 1 / 3)
    psi = np.full((len(workers.agents), 3), 1 / 3)
    params = SimpleNamespace(value=(mu, phi, psi))  # what the task reads of a broadcast
    (tmp_path / "job").write_bytes(cloudpickle.dumps((_estep_task(params), _add)))
    (tmp_path / "args").write_bytes(pickle.dumps(block))
    script = (
        "import pickle, sys\n"
        "sys.modules['repro'] = None  # a worker without the package\n"
        "task, add = pickle.load(open('job', 'rb'))\n"
        "out = task(pickle.load(open('args', 'rb')))\n"
        "pickle.dump(add(out, out), open('out', 'wb'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = pickle.loads((tmp_path / "out").read_bytes())
    want = _estep(block, mu, phi, psi)
    for g, w in zip(got, want):
        assert np.array_equal(g, 2 * w)


def test_estep_tasks_leave_no_zip_importers(spark, problem):
    """Every Python task starts with ``importlib.invalidate_caches()``, which
    makes each zip importer a worker has cached re-read its archive
    (``pyspark.zip``, ...). After a fit, no worker holds one, and a worker
    still imports from the archives and runs pandas jobs."""
    ds, cand, anc, _ = problem
    TDHSpark(spark, max_iter=5).fit(spark.createDataFrame(ds.records), None, spark.createDataFrame(anc))
    sc = spark.sparkContext
    n = sc.defaultParallelism

    def zip_importers(_):
        import sys
        import zipimport

        yield sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())

    assert sc.parallelize(range(n), n).mapPartitions(zip_importers).collect() == [0] * n

    def fresh_import(_):
        import importlib

        return importlib.import_module("pyspark.mllib.linalg").__name__  # no worker has imported it

    assert sc.parallelize(range(n), n).map(fresh_import).collect() == ["pyspark.mllib.linalg"] * n
    doubled = spark.range(8).mapInPandas(lambda frames: (f * 2 for f in frames), "id long")
    assert sorted(r.id for r in doubled.collect()) == list(range(0, 16, 2))


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


_EQ_1_4_SQL = """
WITH cand AS (SELECT DISTINCT object, value FROM records),
nv AS (SELECT object, COUNT(*)::DOUBLE AS nV FROM cand GROUP BY object),
ng AS (SELECT object, value, COUNT(*)::DOUBLE AS nG FROM anc GROUP BY object, value),
oh AS (SELECT DISTINCT object, TRUE AS oh FROM anc),
cnt AS (SELECT object, value, COUNT(*)::DOUBLE AS cnt FROM records GROUP BY object, value),
genc AS (
    SELECT a.object, a.value, SUM(c.cnt) AS gen_cnt
    FROM anc a JOIN cnt c ON c.object = a.object AND c.value = a.anc
    GROUP BY a.object, a.value
),
s_o AS (SELECT object, COUNT(*)::DOUBLE AS S FROM records GROUP BY object),
stats AS (  -- per conditioning truth v
    SELECT c.object, c.value, nv.nV, COALESCE(ng.nG, 0) AS nG,
           COALESCE(genc.gen_cnt, 0) AS gen_cnt, COALESCE(oh.oh, FALSE) AS oh,
           s_o.S, cv.cnt AS cnt_v
    FROM cand c
    JOIN nv ON nv.object = c.object
    JOIN s_o ON s_o.object = c.object
    JOIN cnt cv ON cv.object = c.object AND cv.value = c.value
    LEFT JOIN ng ON ng.object = c.object AND ng.value = c.value
    LEFT JOIN genc ON genc.object = c.object AND genc.value = c.value
    LEFT JOIN oh ON oh.object = c.object
),
claims AS (
    SELECT 's' AS side, object, source AS agent, value AS claim FROM records
    UNION ALL
    SELECT 'w', object, worker, value FROM answers
),
e AS (  -- every claim against every candidate v of its object
    SELECT cl.side, cl.object, cl.agent, cl.claim, st.*  EXCLUDE (object),
           a.anc IS NOT NULL AS is_anc, COALESCE(cc.cnt, 0) AS claim_cnt
    FROM claims cl
    JOIN stats st ON st.object = cl.object
    LEFT JOIN anc a ON a.object = cl.object AND a.value = st.value AND a.anc = cl.claim
    LEFT JOIN cnt cc ON cc.object = cl.object AND cc.value = cl.claim
),
r AS (
    SELECT *,
        CASE WHEN claim = value THEN 1 WHEN is_anc THEN 2 ELSE 3 END AS rel,
        CASE WHEN side = 's' THEN 1.0 ELSE claim_cnt END AS num,
        CASE  -- Eq. (1)/(2) for sources, Eq. (3)/(4) (Pop2/Pop3) for workers
            WHEN side = 's' AND is_anc THEN nG
            WHEN side = 's' AND oh THEN nV - nG - 1
            WHEN side = 's' THEN nV - 1
            WHEN is_anc THEN gen_cnt
            WHEN oh THEN S - cnt_v - gen_cnt
            ELSE S - cnt_v
        END AS den
    FROM e
)
SELECT side, object, agent, claim, value, rel,
       CASE WHEN rel = 1 THEN 1.0 WHEN den > 0 THEN num / den ELSE 0.0 END AS coef
FROM r
UNION ALL  -- o not in O_H: an exact match carries phi1 + phi2 (Eq. 2/4)
SELECT side, object, agent, claim, value, 2, 1.0 FROM r WHERE claim = value AND NOT oh
"""


def test_expand_matches_relational_derivation(problem):
    """The Eq. (1)–(4) kernel against an independent relational derivation
    of its rows, on both sides. Besides the fixture's answers, every
    candidate is answered once, so each case of Eq. (3)/(4) occurs."""
    ds, cand, anc, answers = problem
    assert len(anc)
    every = cand.assign(worker="x" + cand.groupby("object").cumcount().astype(str))
    answers = pd.concat([answers, every[["object", "worker", "value"]]], ignore_index=True)
    con = duckdb.connect()
    try:
        for name, t in (("records", ds.records), ("answers", answers), ("anc", anc)):
            con.register(name, t)
        want = con.execute(_EQ_1_4_SQL).fetchdf()
    finally:
        con.close()
    p = compile_problem(ds.records, anc)
    got = []
    for side, claims, popularity in (
        ("s", p.sources, False),
        ("w", code_answers(p, answers), True),
    ):
        row, cid, rel, coef = expand(p, claims.cid, popularity)
        got.append(
            pd.DataFrame(
                {
                    "side": side,
                    "object": p.cand["object"].to_numpy()[cid],
                    "agent": np.asarray(claims.agents)[claims.agent[row]],
                    "claim": p.cand["value"].to_numpy()[claims.cid[row]],
                    "value": p.cand["value"].to_numpy()[cid],
                    "rel": rel,
                    "coef": coef,
                }
            )
        )
    got = pd.concat(got)
    key = ["side", "object", "agent", "claim", "value", "rel"]
    assert not want.duplicated(key).any()
    assert set(want["side"]) == {"s", "w"} and (want["rel"] == 2).any()
    m = got.merge(want, on=key, how="outer", suffixes=("", "_sql"), indicator=True)
    assert (m["_merge"] == "both").all(), m[m["_merge"] != "both"].head()
    np.testing.assert_allclose(m["coef"], m["coef_sql"], rtol=1e-12, atol=0)


class TestSparkAggregationsOracle:
    """DuckDB oracle checks for the aggregations of the compiled problem,
    which both engines build on (the Spark engine compiles its collected
    inputs with the same :func:`compile_problem`)."""

    def test_candidate_sets(self, problem):
        ds, *_ = problem
        p = compile_problem(ds.records, pd.DataFrame(columns=["object", "value", "anc"]))
        assert_equivalent(
            p.cand,
            "SELECT DISTINCT object, value FROM records",
            records=ds.records,
        )

    def test_claim_counts(self, problem):
        ds, cand, anc, _ = problem
        p = compile_problem(ds.records, anc)
        assert_equivalent(
            p.cand.assign(n=p.cnt),
            "SELECT object, value, COUNT(*) AS n FROM records GROUP BY object, value",
            records=ds.records,
        )

    def test_sources_per_object(self, problem):
        ds, cand, anc, _ = problem
        p = compile_problem(ds.records, anc)
        assert_equivalent(
            pd.DataFrame({"object": p.objects, "s_o": p.S}),
            "SELECT object, COUNT(*) AS s_o FROM records GROUP BY object",
            records=ds.records,
        )

    def test_gen_cnt_join(self, problem):
        """The Pop2 denominator: sum of ancestor claim counts per candidate."""
        ds, cand, anc, _ = problem
        if not len(anc):
            pytest.skip("no ancestor pairs at this scale")
        p = compile_problem(ds.records, anc)
        assert_equivalent(
            p.cand.assign(gen_cnt=p.gen_cnt)[p.nG > 0],
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
