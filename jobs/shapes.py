"""The paper's shapes over several seeds (Tables 3–6).

Usage: python jobs/shapes.py [--seeds 0-4] [--procs 4] [--csv results/shapes.csv]

Regenerates Tables 3–6 at SF=1, the scale of the committed tables and of
the paper, once per seed with the table generators of ``repro.tables``
(seed s runs ``table3/4/5(seed=s)`` and, as the committed
Table 6 is stock seed 7, ``table6(seed=7 + s)``; seed 0 is the committed
``results/``), evaluates every predicate of ``repro.tables.shapes`` on
each seed's tables and writes one row per predicate (on how many seeds it
holds) and one per Table-4 cell (its mean and range over the seeds).
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pandas as pd  # noqa: E402

from repro.tables import shapes  # noqa: E402
from repro.tables.table3 import table3  # noqa: E402
from repro.tables.table4 import table4  # noqa: E402
from repro.tables.table5 import table5  # noqa: E402
from repro.tables.table6 import table6  # noqa: E402

SF = 1.0
TABLE6_SEED = 7  # the seed of the committed Table 6
GENERATORS = {
    "table3": lambda s: table3(sf=SF, seed=s),
    "table5": lambda s: table5(sf=SF, seed=s),
    "table6": lambda s: table6(sf=SF, seed=TABLE6_SEED + s),
}


def seed_range(text: str) -> list[int]:
    """``"0-4"`` -> [0, 1, 2, 3, 4]; ``"0,2"`` -> [0, 2]."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _generate(job: tuple) -> pd.DataFrame:
    table, seed = job
    return GENERATORS[table](seed)


def summarise(per_seed: dict[int, dict[str, pd.DataFrame]]) -> pd.DataFrame:
    """One row per predicate (``holds`` of ``seeds``) and one per Table-4
    cell (``mean``, ``min``, ``max`` of its accuracy over the seeds)."""
    held = pd.DataFrame([shapes.evaluate(tables) for tables in per_seed.values()])
    rows = [
        {"kind": "shape", "name": name, "seeds": len(held), "holds": int(held[name].sum())}
        for name in shapes.SHAPES
    ]
    cells = pd.concat(tables["table4"] for tables in per_seed.values())
    stats = cells.groupby(["dataset", "inference", "assignment"], sort=False)["accuracy"]
    for (dataset, infer, assign), acc in stats:
        rows.append(
            {
                "kind": "table4_cell",
                "name": f"{dataset} {infer}+{assign}",
                "seeds": len(acc),
                "mean": acc.mean(),
                "min": acc.min(),
                "max": acc.max(),
            }
        )
    out = pd.DataFrame(rows, columns=["kind", "name", "seeds", "holds", "mean", "min", "max"])
    return out.astype({"holds": "Int64"})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-4"))
    ap.add_argument("--procs", type=int, default=4)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()
    t0 = time.time()
    jobs = [(t, s) for s in args.seeds for t in GENERATORS]
    with ProcessPoolExecutor(args.procs, mp_context=multiprocessing.get_context("spawn")) as ex:
        other = dict(zip(jobs, ex.map(_generate, jobs)))
    per_seed = {}
    for s in args.seeds:
        tables = {t: other[(t, s)] for t in GENERATORS}
        tables["table4"] = table4(sf=SF, seed=s, max_workers=args.procs)
        per_seed[s] = tables
        print(f"[shapes] seed {s} done at {time.time() - t0:.0f}s", flush=True)
    out = summarise(per_seed)
    print(out.round(4).to_string(index=False))
    print(f"[shapes] {len(args.seeds)} seeds in {time.time() - t0:.0f}s")
    if args.csv:
        out.to_csv(args.csv, index=False)


if __name__ == "__main__":
    main()
