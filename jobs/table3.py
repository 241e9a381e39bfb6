"""Reproduce Table 3 (truth inference without crowdsourcing).

Usage: python jobs/table3.py [--sf 1.0] [--csv out.csv]
TDH is additionally run through the Spark engine to exercise the
distributed path (the local engine is asserted equal in tests).
"""
from __future__ import annotations

import argparse
import time

from _common import get_spark

from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_spark import TDHSpark
from repro.datagen.truthdata import birthplaces_lite
from repro.eval import metrics as M
from repro.tables.table3 import table3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None)
    ap.add_argument("--skip-spark", action="store_true")
    args = ap.parse_args()
    t0 = time.time()
    df = table3(sf=args.sf, seed=args.seed)
    cols = ["algorithm"] + [c for c in df.columns if c != "algorithm"]
    print(df[cols].round(4).to_string(index=False))
    print(f"[table3] local algorithms done in {time.time() - t0:.1f}s")
    if not args.skip_spark:
        spark = get_spark("table3-tdh-spark")
        ds = birthplaces_lite(sf=args.sf, seed=args.seed)
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
        t1 = time.time()
        res = TDHSpark(spark).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        print(
            f"[table3] TDH (Spark engine, BirthPlaces) accuracy="
            f"{M.accuracy(res.truths, gold):.4f} in {time.time() - t1:.1f}s"
        )
        spark.stop()
    if args.csv:
        df.to_csv(args.csv, index=False)


if __name__ == "__main__":
    main()
