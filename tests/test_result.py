"""Tests for the InferenceResult container and argmax helper."""
import pandas as pd
import pytest

from repro.core.result import InferenceResult, argmax_truths


@pytest.fixture()
def mu():
    return pd.DataFrame(
        [
            ("o1", "a", 0.2),
            ("o1", "b", 0.8),
            ("o2", "x", 0.5),
            ("o2", "y", 0.5),
            ("o3", "p", 1.0),
        ],
        columns=["object", "value", "mu"],
    )


class TestArgmax:
    def test_picks_max(self, mu):
        t = argmax_truths(mu)
        assert dict(zip(t["object"], t["value"]))["o1"] == "b"

    def test_tie_breaks_lexicographically(self, mu):
        t = argmax_truths(mu)
        assert dict(zip(t["object"], t["value"]))["o2"] == "x"

    def test_one_row_per_object(self, mu):
        t = argmax_truths(mu)
        assert list(t["object"]) == ["o1", "o2", "o3"]

    def test_columns(self, mu):
        assert list(argmax_truths(mu).columns) == ["object", "value"]


class TestResultHelpers:
    def test_truth_map(self, mu):
        res = InferenceResult(truths=argmax_truths(mu), mu=mu)
        assert res.truth_map() == {"o1": "b", "o2": "x", "o3": "p"}

    def test_mu_map(self, mu):
        res = InferenceResult(truths=argmax_truths(mu), mu=mu)
        m = res.mu_map()
        assert m["o1"] == {"a": 0.2, "b": 0.8}
        assert m["o3"] == {"p": 1.0}

    def test_optional_fields_default_none(self, mu):
        res = InferenceResult(truths=argmax_truths(mu), mu=mu)
        assert res.phi is None and res.psi is None and res.D is None
        assert not hasattr(res, "N")

    def test_extras_is_fresh_dict(self, mu):
        a = InferenceResult(truths=argmax_truths(mu), mu=mu)
        b = InferenceResult(truths=argmax_truths(mu), mu=mu)
        a.extras["x"] = 1
        assert "x" not in b.extras
