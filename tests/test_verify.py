import dataclasses
import multiprocessing
import os

import pytest

import poseattn.tensor
from poseattn import tensor as T
from poseattn import verify
from poseattn.verify import TinyDims, check_pose_cell, check_rgb_cell, format_report, run_gradcheck


@pytest.fixture
def report(default_gradcheck):
    return default_gradcheck[0]


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


def test_corrupted_scan_adjoint_fails_only_attention_and_gru_parameters(monkeypatch):
    real_make = poseattn.tensor._make

    def corrupting_make(out_data, op, parents, vjps):
        if op == "attend_scan":
            vjps = tuple(lambda g, f=f: 1.01 * f(g) for f in vjps)  # deliberately wrong by 1%
        return real_make(out_data, op, parents, vjps)

    monkeypatch.setattr(poseattn.tensor, "_make", corrupting_make)
    cell = check_rgb_cell("both", True, TinyDims())
    assert not cell.passed
    names = {name for name, _ in cell.failures}
    # The temporal attention's and the head's gradients bypass the scan.
    assert names and all(n.startswith(("attn.", "gru.")) for n in names), names


def test_report_formatting(report):
    text = format_report(report)
    assert "pose_stream" in text
    assert "pass" in text


def test_single_cell_api():
    cell = check_rgb_cell("both", True, TinyDims())
    assert cell.passed
    assert cell.n_params > 0


def test_report_gives_each_cell_its_seconds(report):
    assert all(c.seconds > 0 for c in report)
    assert "seconds" in format_report(report).splitlines()[0]


def _cpus(monkeypatch, n: int) -> list[int]:
    """Let this process see ``n`` CPUs; returns the sizes of the pools run_gradcheck makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    pools: list[int] = []

    class CountedPool(verify.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", CountedPool)
    return pools


def _bits(cell) -> dict:
    """Every field but ``seconds``, floats as their exact bits."""
    fields = dataclasses.asdict(cell)
    del fields["seconds"]
    fields["max_rel_error"] = cell.max_rel_error.hex()
    fields["failures"] = [(name, err.hex()) for name, err in cell.failures]
    return fields


@pytest.mark.parametrize("seed", [0, 1])
def test_pool_returns_the_in_process_cells_bitwise(monkeypatch, seed):
    pools = _cpus(monkeypatch, 2)
    got = run_gradcheck(TinyDims(), seed=seed)
    assert pools == [2]
    want = [verify.check_cell(cell, TinyDims(), seed=seed) for cell in verify.CELLS]
    assert [_bits(c) for c in got] == [_bits(c) for c in want]


def test_pool_size_is_capped_at_one_worker_per_cell(monkeypatch):
    _cpus(monkeypatch, 64)
    assert verify.gradcheck_workers() == len(verify.CELLS) == 11


def test_one_cpu_runs_the_cells_in_process(monkeypatch):
    pools = _cpus(monkeypatch, 1)
    ran = []

    def recording(cell, *args):
        ran.append((cell, os.getpid()))
        return cell

    monkeypatch.setattr(verify, "check_cell", recording)
    assert run_gradcheck(TinyDims()) == list(verify.CELLS)
    assert pools == []
    assert ran == [(cell, os.getpid()) for cell in verify.CELLS]


def test_a_cell_raising_in_a_worker_raises_here_and_leaves_no_process(monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    real = verify.check_pose_cell

    def raising_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:  # a forked worker inherits this patch
            raise FloatingPointError("pose cell blew up")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "check_pose_cell", raising_in_a_worker)
    with pytest.raises(FloatingPointError, match="^pose cell blew up$"):
        run_gradcheck(TinyDims())
    assert multiprocessing.active_children() == []
