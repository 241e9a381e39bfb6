"""Task-assignment job: a TDH Spark fit, then EAI's Algorithm 1.

The confidences mu and Eq. (9)'s denominator D come from the TDH Spark
fit; the EAI table and Algorithm 1's per-worker selections, which are
sequential over workers, run locally on the collected result.

Usage: spark-submit jobs/assign_tasks.py [--dataset bp|her] [--sf 0.1] [--k 5]
"""
from __future__ import annotations

import argparse

import numpy as np
from _common import get_spark

from repro.assign.common import AssignContext
from repro.assign.eai import eai_assign, eai_table
from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_spark import TDHSpark
from repro.datagen.truthdata import birthplaces_lite, heritages_lite


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", choices=["bp", "her"], default="bp")
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=10)
    ap.add_argument("--k", type=int, default=5)
    args = ap.parse_args()
    spark = get_spark("tdh-task-assignment")
    mk = birthplaces_lite if args.dataset == "bp" else heritages_lite
    ds = mk(sf=args.sf, seed=args.seed)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    res = TDHSpark(spark).fit(
        spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
    )
    ctx = AssignContext(
        result=res,
        workers=[f"w{i}" for i in range(args.workers)],
        k=args.k,
        answers=None,
        rng=np.random.default_rng(args.seed),
    )
    assignment = eai_assign(ctx)
    Q, _ = eai_table(ctx)
    print(f"[assign] TDH fit: iters={res.extras['n_iter']} converged={res.extras['converged']}")
    for w, objs in assignment.items():
        j = ctx.workers.index(w)
        print(f"[assign] {w}: " + ", ".join(f"{o} (EAI {Q[j, ctx.objects.index(o)]:.3g})" for o in objs))
    spark.stop()


if __name__ == "__main__":
    main()
