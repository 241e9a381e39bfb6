"""Table 3 — performance of truth inference algorithms (no crowdsourcing).

Runs the 10 single-truth algorithms on both datasets and reports
Accuracy / GenAccuracy / AvgDistance, next to the paper's numbers.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.accu import accu, popaccu
from repro.baselines.asums import asums
from repro.baselines.crh import crh
from repro.baselines.docs import docs
from repro.baselines.lca import lca
from repro.baselines.lfc import lfc
from repro.baselines.mdc import mdc
from repro.baselines.vote import vote
from repro.core.candidates import candidate_sets
from repro.core.tdh_local import TDH
from repro.datagen.truthdata import TruthDataset, birthplaces_lite, heritages_lite
from repro.eval import metrics as M

ALGORITHMS = ["TDH", "VOTE", "LCA", "DOCS", "ASUMS", "MDC", "ACCU", "POPACCU", "LFC", "CRH"]

#: Paper Table 3 (BirthPlaces: acc/gen/dist, Heritages: acc/gen/dist)
PAPER = {
    "TDH": (0.8913, 0.8988, 0.3151, 0.7414, 0.8726, 0.5210),
    "VOTE": (0.7900, 0.8924, 0.4961, 0.6892, 0.8994, 0.6382),
    "LCA": (0.8834, 0.8923, 0.3414, 0.6930, 0.8866, 0.6611),
    "DOCS": (0.8828, 0.8916, 0.3409, 0.6904, 0.8866, 0.6599),
    "ASUMS": (0.8543, 0.8571, 0.4573, 0.6229, 0.7414, 1.2000),
    "MDC": (0.8263, 0.8432, 0.5320, 0.7254, 0.8087, 0.6869),
    "ACCU": (0.8137, 0.8296, 0.6063, 0.5834, 0.7656, 1.0637),
    "POPACCU": (0.8133, 0.8300, 0.6070, 0.6561, 0.8586, 0.7554),
    "LFC": (0.8085, 0.8743, 0.4669, 0.6803, 0.8076, 0.8076),
    "CRH": (0.8083, 0.8271, 0.6120, 0.6841, 0.8828, 0.6688),
}


def run_algorithm(name: str, ds: TruthDataset):
    """Dispatch one single-truth inference algorithm on a dataset."""
    if name == "TDH":
        return TDH().fit(ds.records, None, ds.hierarchy)
    if name == "VOTE":
        return vote(ds.records)
    if name == "LCA":
        return lca(ds.records)
    if name == "DOCS":
        return docs(ds.records, hierarchy=ds.hierarchy)
    if name == "ASUMS":
        return asums(ds.records, hierarchy=ds.hierarchy)
    if name == "MDC":
        return mdc(ds.records)
    if name == "ACCU":
        return accu(ds.records)
    if name == "POPACCU":
        return popaccu(ds.records)
    if name == "LFC":
        return lfc(ds.records)
    if name == "CRH":
        return crh(ds.records)
    raise ValueError(name)


def table3(*, sf: float = 0.1, seed: int = 0, algorithms: list[str] | None = None) -> pd.DataFrame:
    """Reproduce Table 3; returns one row per algorithm with measured and
    paper columns for both datasets."""
    datasets = [birthplaces_lite(sf=sf, seed=seed), heritages_lite(sf=sf, seed=seed + 1)]
    rows = []
    for name in algorithms or ALGORITHMS:
        row: dict = {"algorithm": name}
        for ds, tag in zip(datasets, ("bp", "her")):
            gold = M.map_gold_to_candidates(ds.gold, candidate_sets(ds.records), ds.hierarchy)
            res = run_algorithm(name, ds)
            row[f"{tag}_accuracy"] = M.accuracy(res.truths, gold)
            row[f"{tag}_gen_accuracy"] = M.gen_accuracy(res.truths, gold, ds.hierarchy)
            row[f"{tag}_avg_distance"] = M.avg_distance(res.truths, gold, ds.hierarchy)
        p = PAPER[name]
        row.update(
            dict(
                zip(
                    [
                        "paper_bp_accuracy",
                        "paper_bp_gen_accuracy",
                        "paper_bp_avg_distance",
                        "paper_her_accuracy",
                        "paper_her_gen_accuracy",
                        "paper_her_avg_distance",
                    ],
                    p,
                )
            )
        )
        rows.append(row)
    return pd.DataFrame(rows)
