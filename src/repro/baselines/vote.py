"""VOTE — majority voting baseline.

Selects the value with the highest frequency among the claimed values
(sources plus any worker answers), ignoring the hierarchy. Confidence is
the vote share, so uncertainty-based task assigners can consume it.

A Spark implementation is provided for oracle-checked distributed
counting; the claim-layout one is used inside the crowdsourcing round loop.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.claims import ClaimLayout
from repro.core.result import InferenceResult


def vote(records: pd.DataFrame, answers: pd.DataFrame | None = None) -> InferenceResult:
    """Majority vote; confidences are normalized vote shares."""
    layout = ClaimLayout(records, answers)
    p = layout.problem
    counts = np.bincount(layout.cid, minlength=len(p.cand))
    mu = counts / np.add.reduceat(counts, p.start)[p.obj_of_cand]
    return InferenceResult(truths=layout.truths(mu), mu=layout.mu(mu))


def vote_spark(records: DataFrame, answers: DataFrame | None = None) -> DataFrame:
    """Distributed majority vote: returns (object, value, n, mu).

    The winning row per object is the one with max ``mu`` (ties broken by
    smallest value, as :func:`vote` picks it).
    """
    claims = records.select("object", "value")
    if answers is not None:
        claims = claims.unionByName(answers.select("object", "value"))
    counts = claims.groupBy("object", "value").agg(F.count("*").alias("n"))
    totals = counts.groupBy("object").agg(F.sum("n").alias("total"))
    return (
        counts.join(totals, "object")
        .withColumn("mu", F.col("n") / F.col("total"))
        .select("object", "value", "n", "mu")
    )
