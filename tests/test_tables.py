"""Smoke tests for the table harnesses (tiny scale; the jobs run full scale)."""
import pandas as pd
import pytest

from repro.tables.table3 import ALGORITHMS, PAPER as PAPER3, table3
from repro.tables.table4 import PAPER as PAPER4, combos, table4
from repro.tables.table5 import PAPER as PAPER5, table5
from repro.tables.table6 import PAPER as PAPER6, table6


class TestTable3:
    def test_paper_reference_complete(self):
        assert set(PAPER3) == set(ALGORITHMS)

    def test_small_run(self):
        df = table3(sf=0.01, algorithms=["TDH", "VOTE"])
        assert set(df["algorithm"]) == {"TDH", "VOTE"}
        for c in ("bp_accuracy", "her_accuracy", "paper_bp_accuracy"):
            assert c in df.columns
        assert ((df["bp_accuracy"] >= 0) & (df["bp_accuracy"] <= 1)).all()

    def test_gen_accuracy_at_least_accuracy(self):
        df = table3(sf=0.01, algorithms=["TDH"])
        assert (df["bp_gen_accuracy"] >= df["bp_accuracy"]).all()


class TestTable4:
    def test_paper_reference_matches_feasible_combos(self):
        assert set(PAPER4) == set(combos())

    def test_small_run_subset(self):
        subset = [
            ("TDH", "EAI"), ("VOTE", "ME"), ("DOCS", "MB"), ("MDC", "ME"),
            ("LCA", "QASCA"), ("ACCU", "ME"), ("ASUMS", "ME"),
        ]
        df = table4(sf=0.01, rounds=1, subset=subset)
        assert len(df) == 14  # 7 combos × 2 datasets
        assert set(df["dataset"]) == {"bp", "her"}
        assert df["paper"].notna().all()


class TestTable5:
    def test_paper_reference_complete(self):
        df_algos = set(PAPER5)
        assert {"TDH", "VOTE", "DART", "LTM", "LFC-MT"} <= df_algos

    def test_small_run(self):
        df = table5(sf=0.01, algorithms=["TDH", "VOTE", "DART"])
        assert set(df["algorithm"]) == {"TDH", "VOTE", "DART"}
        for c in ("bp_precision", "her_recall", "paper_bp_f1"):
            assert c in df.columns
        assert ((df["bp_f1"] >= 0) & (df["bp_f1"] <= 1)).all()


class TestTable6:
    def test_paper_reference_complete(self):
        assert len(PAPER6) == 18  # 6 algorithms × 3 attributes

    def test_small_run(self):
        df = table6(sf=0.02, algorithms=["TDH", "MEAN"])
        assert set(df["algorithm"]) == {"TDH", "MEAN"}
        assert (df["change_rate_mae"] >= 0).all()

    def test_tdh_beats_mean(self):
        df = table6(sf=0.05, algorithms=["TDH", "MEAN"]).set_index("algorithm")
        assert (
            df.loc["TDH", "open_price_mae"] < df.loc["MEAN", "open_price_mae"]
        )
