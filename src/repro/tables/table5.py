"""Table 5 — multi-truth evaluation (precision / recall / F1, §5.7).

Single-truth outputs and native multi-truth outputs are both expanded
with their hierarchy ancestors (the paper's uniform treatment), then
compared against the gold multi-truth set ``{t_o} ∪ ancestors(t_o)``.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.lfc import lfc_mt
from repro.baselines.multitruth import dart, ltm
from repro.core.candidates import candidate_sets
from repro.datagen.truthdata import TruthDataset, birthplaces_lite, heritages_lite
from repro.eval import metrics as M
from repro.tables.table3 import ALGORITHMS as SINGLE_TRUTH
from repro.tables.table3 import run_algorithm

MULTI_TRUTH = ["LFC-MT", "DART", "LTM"]

#: Paper Table 5: (bp P, bp R, bp F1, her P, her R, her F1)
PAPER = {
    "TDH": (0.899, 0.921, 0.910, 0.873, 0.795, 0.832),
    "VOTE": (0.892, 0.804, 0.846, 0.899, 0.717, 0.798),
    "LCA": (0.892, 0.913, 0.903, 0.878, 0.711, 0.786),
    "DOCS": (0.892, 0.913, 0.902, 0.887, 0.722, 0.796),
    "ASUMS": (0.857, 0.888, 0.872, 0.741, 0.660, 0.698),
    "POPACCU": (0.847, 0.858, 0.852, 0.859, 0.694, 0.768),
    "LFC": (0.874, 0.838, 0.856, 0.808, 0.727, 0.765),
    "MDC": (0.844, 0.853, 0.848, 0.807, 0.792, 0.800),
    "ACCU": (0.830, 0.842, 0.836, 0.766, 0.631, 0.692),
    "CRH": (0.827, 0.833, 0.830, 0.883, 0.716, 0.791),
    "LFC-MT": (0.763, 0.723, 0.742, 0.898, 0.684, 0.777),
    "DART": (0.590, 0.855, 0.698, 0.357, 0.994, 0.525),
    "LTM": (0.780, 0.472, 0.588, 0.871, 0.672, 0.759),
}


def _multi_truth_outputs(name: str, ds: TruthDataset) -> dict[str, set[str]]:
    if name == "LFC-MT":
        return lfc_mt(ds.records)
    if name == "DART":
        return dart(ds.records, hierarchy=ds.hierarchy)
    if name == "LTM":
        return ltm(ds.records)
    raise ValueError(name)


def table5(*, sf: float = 0.1, seed: int = 0, algorithms: list[str] | None = None) -> pd.DataFrame:
    """Reproduce Table 5 for the 10 single-truth + 3 multi-truth algorithms."""
    datasets = [birthplaces_lite(sf=sf, seed=seed), heritages_lite(sf=sf, seed=seed + 1)]
    rows = []
    for name in algorithms or (SINGLE_TRUTH + MULTI_TRUTH):
        row: dict = {
            "algorithm": name,
            "kind": "single" if name in SINGLE_TRUTH else "multi",
        }
        for ds, tag in zip(datasets, ("bp", "her")):
            gold = M.map_gold_to_candidates(ds.gold, candidate_sets(ds.records), ds.hierarchy)
            if name in SINGLE_TRUTH:
                res = run_algorithm(name, ds)
                predicted = {o: {v} for o, v in res.truth_map().items()}
            else:
                predicted = _multi_truth_outputs(name, ds)
            predicted = M.expand_prediction_sets(predicted, ds.hierarchy)
            p, r, f1 = M.multi_truth_prf(predicted, gold, ds.hierarchy)
            row[f"{tag}_precision"], row[f"{tag}_recall"], row[f"{tag}_f1"] = p, r, f1
        pp = PAPER[name]
        row.update(
            dict(
                zip(
                    [
                        "paper_bp_precision",
                        "paper_bp_recall",
                        "paper_bp_f1",
                        "paper_her_precision",
                        "paper_her_recall",
                        "paper_her_f1",
                    ],
                    pp,
                )
            )
        )
        rows.append(row)
    return pd.DataFrame(rows)
