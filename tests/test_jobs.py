"""The job entrypoints must at least import and expose a main()."""
import importlib.util
import pathlib
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"


def _load(name: str):
    # spark-submit runs jobs with the jobs/ directory on sys.path (for
    # the shared `_common` bootstrap); emulate that here
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


@pytest.mark.parametrize(
    "name", ["table3", "table4", "table5", "table6", "run_tdh", "assign_tasks", "shapes"]
)
def test_job_importable_with_main(name):
    mod = _load(name)
    assert callable(mod.main)


def test_shapes_summary_counts_seeds():
    """The multi-seed summary on the committed tables taken as two seeds:
    every shape holds on both or neither, and each Table-4 cell's mean and
    range is the committed value."""
    from repro.tables import shapes

    job = _load("shapes")
    assert job.seed_range("0-4") == [0, 1, 2, 3, 4] and job.seed_range("1,3") == [1, 3]
    tables = shapes.load(str(JOBS.parent / "results"))
    out = job.summarise({0: tables, 1: tables})
    rows = out[out["kind"] == "shape"].set_index("name")
    assert set(rows.index) == set(shapes.SHAPES) and (rows["seeds"] == 2).all()
    assert {n for n, h in rows["holds"].items() if h == 0} == shapes.FAILING
    assert (rows["holds"].isin([0, 2])).all()
    cells = out[out["kind"] == "table4_cell"]
    assert len(cells) == len(tables["table4"])
    want = tables["table4"]["accuracy"].to_numpy()
    for col in ("mean", "min", "max"):
        assert (cells[col].to_numpy() == want).all()
