"""Run TDH truth inference as a Spark job on a synthetic dataset.

Usage: spark-submit jobs/run_tdh.py [--dataset bp|her] [--sf 0.1] [--out DIR]
Writes truths/ mu/ phi/ as parquet when --out is given, else prints a summary.
"""
from __future__ import annotations

import argparse

from _common import get_spark

from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_spark import TDHSpark
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.eval import metrics as M


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", choices=["bp", "her"], default="bp")
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark("tdh-inference")
    mk = birthplaces_lite if args.dataset == "bp" else heritages_lite
    ds = mk(sf=args.sf, seed=args.seed)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    res = TDHSpark(spark).fit(
        spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
    )
    gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
    print(
        f"[tdh] dataset={ds.name} records={len(ds.records)} "
        f"iters={res.extras['n_iter']} converged={res.extras['converged']} "
        f"accuracy={M.accuracy(res.truths, gold):.4f} "
        f"gen_accuracy={M.gen_accuracy(res.truths, gold, ds.hierarchy):.4f} "
        f"avg_distance={M.avg_distance(res.truths, gold, ds.hierarchy):.4f}"
    )
    if args.out:
        spark.createDataFrame(res.truths).write.mode("overwrite").parquet(f"{args.out}/truths")
        spark.createDataFrame(res.mu).write.mode("overwrite").parquet(f"{args.out}/mu")
        spark.createDataFrame(res.phi).write.mode("overwrite").parquet(f"{args.out}/phi")
    spark.stop()


if __name__ == "__main__":
    main()
