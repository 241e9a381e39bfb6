"""The paper's shapes as named predicates over the result tables.

Each "Shape reproduced" paragraph of EXPERIMENTS.md makes a few claims
about who wins and by roughly how much. Every claim is one predicate
here, named ``t<table>_<claim>``, over the frame that
:mod:`repro.tables` writes to ``results/table<N>.csv``. :func:`evaluate`
runs them all; a claim the committed results do not show is listed in
:data:`FAILING` and reported as failing in EXPERIMENTS.md.
"""
from __future__ import annotations

import os
from typing import Callable

import pandas as pd

TABLES = ("table3", "table4", "table5", "table6")
SHAPES: dict[str, tuple[str, Callable[[pd.DataFrame], bool]]] = {}

#: Claims of EXPERIMENTS.md that the committed results do not show.
FAILING = {
    # VOTE scores higher on Heritages than on BirthPlaces (Accuracy .7057 vs .6475).
    "t3_every_algorithm_worse_on_heritages",
    # VOTE's BirthPlaces GenAccuracy (.8854) is the lowest of all ten.
    "t3_vote_worst_bp_accuracy_yet_high_gen_accuracy",
    # VOTE's EPS MAE (.1165) is only 5.9x below CATD's (.6825).
    "t6_selection_orders_of_magnitude_better",
    # Heritages TDH+EAI (.9172) is below TDH+QASCA (.9185); holds on 4 of 5 seeds.
    "t4_her_tdh_eai_qasca_me",
    # Heritages TDH+EAI (.9172) is 1.3 points below the paper's .9304; 3 of 5 seeds.
    "t4_her_tdh_eai_near_paper",
}


def shape(table: str):
    """Register the decorated predicate of ``table``'s frame under its name."""

    def register(fn: Callable[[pd.DataFrame], bool]):
        SHAPES[fn.__name__] = (table, fn)
        return fn

    return register


def load(results_dir: str) -> dict[str, pd.DataFrame]:
    """The committed tables, read back to the last bit."""
    return {
        t: pd.read_csv(os.path.join(results_dir, f"{t}.csv"), float_precision="round_trip")
        for t in TABLES
    }


def evaluate(tables: dict[str, pd.DataFrame]) -> dict[str, bool]:
    """Every registered shape: name -> whether ``tables`` show it."""
    return {name: bool(fn(tables[table])) for name, (table, fn) in SHAPES.items()}


def _best(s: pd.Series, lower: bool = False) -> str:
    """The label of the single best entry of ``s`` (ties count as no winner)."""
    top = s.min() if lower else s.max()
    winners = s.index[s == top]
    return winners[0] if len(winners) == 1 else ""


# -- Table 3: truth inference without crowdsourcing ---------------------
@shape("table3")
def t3_tdh_best_accuracy_and_distance(t: pd.DataFrame) -> bool:
    """TDH has the best Accuracy and AvgDistance on both datasets."""
    t = t.set_index("algorithm")
    return all(
        _best(t[f"{d}_accuracy"]) == "TDH" and _best(t[f"{d}_avg_distance"], lower=True) == "TDH"
        for d in ("bp", "her")
    )


@shape("table3")
def t3_every_algorithm_worse_on_heritages(t: pd.DataFrame) -> bool:
    """Every algorithm has a lower Accuracy on Heritages than on BirthPlaces."""
    return bool((t["her_accuracy"] < t["bp_accuracy"]).all())


@shape("table3")
def t3_vote_worst_bp_accuracy_yet_high_gen_accuracy(t: pd.DataFrame) -> bool:
    """VOTE has the worst BirthPlaces Accuracy, yet a GenAccuracy at or
    above the median there."""
    t = t.set_index("algorithm")
    gen = t["bp_gen_accuracy"]
    return _best(t["bp_accuracy"], lower=True) == "VOTE" and gen["VOTE"] >= gen.median()


@shape("table3")
def t3_vote_best_her_gen_accuracy(t: pd.DataFrame) -> bool:
    """VOTE has the highest GenAccuracy on Heritages."""
    return _best(t.set_index("algorithm")["her_gen_accuracy"]) == "VOTE"


@shape("table3")
def t3_tdh_then_asums_lead_bp(t: pd.DataFrame) -> bool:
    """TDH, then ASUMS, have the best BirthPlaces Accuracy."""
    order = t.sort_values("bp_accuracy", ascending=False)["algorithm"]
    return list(order[:2]) == ["TDH", "ASUMS"]


@shape("table3")
def t3_asums_worst_her_accuracy(t: pd.DataFrame) -> bool:
    """ASUMS has the worst Heritages Accuracy."""
    return _best(t.set_index("algorithm")["her_accuracy"], lower=True) == "ASUMS"


# -- Table 4: accuracy after the crowdsourcing rounds ---------------------
def _cells(t: pd.DataFrame, dataset: str) -> pd.Series:
    return t[t["dataset"] == dataset].set_index(["inference", "assignment"])["accuracy"]


@shape("table4")
def t4_tdh_eai_best_bp_cell(t: pd.DataFrame) -> bool:
    """TDH+EAI is the best combination on BirthPlaces."""
    return _best(_cells(t, "bp")) == ("TDH", "EAI")


@shape("table4")
def t4_tdh_best_in_every_bp_column(t: pd.DataFrame) -> bool:
    """TDH is the best inference in every BirthPlaces assignment column it
    can drive."""
    cells = _cells(t, "bp")
    columns = cells.loc["TDH"].index
    return all(_best(cells.xs(a, level="assignment")) == "TDH" for a in columns)


@shape("table4")
def t4_bp_tdh_eai_beats_qasca_and_me(t: pd.DataFrame) -> bool:
    """For TDH on BirthPlaces, EAI beats both QASCA and ME."""
    tdh = _cells(t, "bp").loc["TDH"]
    return bool(tdh["EAI"] > max(tdh["QASCA"], tdh["ME"]))


@shape("table4")
def t4_bp_tdh_qasca_close_to_me(t: pd.DataFrame) -> bool:
    """For TDH on BirthPlaces, QASCA ≈ ME: within one point of accuracy."""
    tdh = _cells(t, "bp").loc["TDH"]
    return bool(abs(tdh["QASCA"] - tdh["ME"]) <= 0.01)


@shape("table4")
def t4_her_tdh_eai_qasca_me(t: pd.DataFrame) -> bool:
    """The Heritages TDH row orders EAI > QASCA > ME, as in the paper."""
    tdh = _cells(t, "her").loc["TDH"]
    return bool(tdh["EAI"] > tdh["QASCA"] > tdh["ME"])


@shape("table4")
def t4_her_tdh_eai_near_paper(t: pd.DataFrame) -> bool:
    """Heritages TDH+EAI lands within 1.2 points of the paper's .9304."""
    row = t[(t["dataset"] == "her") & (t["inference"] == "TDH") & (t["assignment"] == "EAI")]
    return bool(abs(row["accuracy"].iloc[0] - row["paper"].iloc[0]) <= 0.012)


# -- Table 5: multi-truth evaluation --------------------------------------
@shape("table5")
def t5_tdh_best_f1(t: pd.DataFrame) -> bool:
    """TDH has the best F1 on both datasets."""
    t = t.set_index("algorithm")
    return all(_best(t[f"{d}_f1"]) == "TDH" for d in ("bp", "her"))


@shape("table5")
def t5_vote_lowest_single_bp_recall(t: pd.DataFrame) -> bool:
    """VOTE has the lowest BirthPlaces recall of the single-truth algorithms."""
    single = t[t["kind"] == "single"].set_index("algorithm")
    return _best(single["bp_recall"], lower=True) == "VOTE"


@shape("table5")
def t5_vote_best_her_precision(t: pd.DataFrame) -> bool:
    """VOTE has the highest Heritages precision."""
    return _best(t.set_index("algorithm")["her_precision"]) == "VOTE"


@shape("table5")
def t5_dart_best_recall_worst_precision(t: pd.DataFrame) -> bool:
    """DART has the highest recall and the lowest precision on both datasets."""
    t = t.set_index("algorithm")
    return all(
        _best(t[f"{d}_recall"]) == "DART" and _best(t[f"{d}_precision"], lower=True) == "DART"
        for d in ("bp", "her")
    )


@shape("table5")
def t5_ltm_worst_bp_f1(t: pd.DataFrame) -> bool:
    """LTM has the lowest BirthPlaces F1."""
    return _best(t.set_index("algorithm")["bp_f1"], lower=True) == "LTM"


# -- Table 6: numeric data -------------------------------------------------
ATTRIBUTES = ("change_rate", "open_price", "eps")
SELECTION = ["TDH", "LCA", "VOTE"]
AVERAGING = ["MEAN", "CATD", "CRH"]


def _mae(t: pd.DataFrame, attribute: str) -> pd.Series:
    return t.set_index("algorithm")[f"{attribute}_mae"]


@shape("table6")
def t6_selection_orders_of_magnitude_better(t: pd.DataFrame) -> bool:
    """On every attribute, each of TDH, LCA and VOTE has an MAE at least
    10x below each of MEAN, CATD and CRH."""
    return all(
        _mae(t, a)[SELECTION].max() * 10 <= _mae(t, a)[AVERAGING].min() for a in ATTRIBUTES
    )


@shape("table6")
def t6_selection_tied_on_change_rate_and_open_price(t: pd.DataFrame) -> bool:
    """TDH, LCA and VOTE are nearly tied on change rate and open price:
    their MAEs spread by under a tenth of the best averaging MAE."""
    return all(
        _mae(t, a)[SELECTION].max() - _mae(t, a)[SELECTION].min() < 0.1 * _mae(t, a)[AVERAGING].min()
        for a in ("change_rate", "open_price")
    )


@shape("table6")
def t6_tdh_beats_vote_4x_on_eps(t: pd.DataFrame) -> bool:
    """On EPS, TDH's MAE is about 4x below VOTE's (the ratio rounds to 4)."""
    mae = _mae(t, "eps")
    return round(mae["VOTE"] / mae["TDH"]) == 4
