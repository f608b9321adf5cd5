import pytest

import poseattn.tensor
from poseattn import tensor as T
from poseattn.verify import TinyDims, check_pose_cell, check_rgb_cell, format_report, run_gradcheck


@pytest.fixture(scope="module")
def report():
    return run_gradcheck(TinyDims())


def test_all_variant_cells_pass(report):
    assert all(c.passed for c in report), format_report(report)


def test_grid_is_ten_variant_cells_plus_pose(report):
    names = [c.name for c in report]
    assert len(names) == 11
    assert names[-1] == "pose_stream"
    conditionings = {"hidden", "pose", "both", "sum", "concat"}
    assert {n for n in names[:-1] if not n.endswith("+ta")} == conditionings
    assert {n[:-3] for n in names[:-1] if n.endswith("+ta")} == conditionings


def test_errors_are_far_below_tolerance(report):
    assert max(c.max_rel_error for c in report) < 1e-8


def test_corrupted_adjoint_reported_with_parameter_name(monkeypatch):
    real_make = poseattn.tensor._make

    def corrupting_make(out_data, op, parents, vjps):
        if op == "gru_scan":  # every GRU parameter's gradient flows through this VJP
            vjps = tuple(lambda g, f=f: 1.01 * f(g) for f in vjps)  # deliberately wrong by 1%
        return real_make(out_data, op, parents, vjps)

    monkeypatch.setattr(poseattn.tensor, "_make", corrupting_make)
    cell = check_pose_cell(TinyDims())
    assert not cell.passed
    assert cell.failures
    names = {name for name, _ in cell.failures}
    # Only GRU parameters fail, by their stacked names: the head's gradient bypasses the scan.
    assert all(n.startswith("stack.layer") and n.rsplit(".", 1)[-1] in ("W", "U", "b") for n in names)
    monkeypatch.setattr(poseattn.tensor, "_make", real_make)


def test_report_formatting(report):
    text = format_report(report)
    assert "pose_stream" in text
    assert "pass" in text


def test_single_cell_api():
    cell = check_rgb_cell("both", True, TinyDims())
    assert cell.passed
    assert cell.n_params > 0
