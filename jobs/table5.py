"""Reproduce Table 5 (multi-truth precision/recall/F1).

Usage: python jobs/table5.py [--sf 1.0] [--csv out.csv]
"""
from __future__ import annotations

import argparse
import time

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.tables.table5 import table5  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()
    t0 = time.time()
    df = table5(sf=args.sf, seed=args.seed)
    print(df.round(3).to_string(index=False))
    print(f"[table5] done in {time.time() - t0:.0f}s")
    if args.csv:
        df.to_csv(args.csv, index=False)


if __name__ == "__main__":
    main()
