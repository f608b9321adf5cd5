"""Every function that ``src/poseattn`` defines is reached from the command line.

The test drives ``cli.main`` in-process under ``sys.setprofile`` (and
``threading.setprofile``, for the package's helper threads) over a matrix of
runs, then names each function or method, nested ones included, that no run
entered.  The matrix is built from ``CONFIG_CHOICES``, ``_CONFIG_FLAGS`` and
the parser's own subcommands: a new choice or config flag is trained without
editing the test, and a new subcommand or subcommand flag fails it until a
run uses it.  Lambdas and generator expressions are parts of the function
that holds them and are not counted on their own.
"""
import inspect
import itertools
import json
import os
import sys
import threading
import types
from pathlib import Path

import poseattn
from poseattn import cli, training
from poseattn.tensor import NumericError
from poseattn.training import _CONFIG_FLAGS, CONFIG_CHOICES

# Functions no command-line run reaches that stay, each with its reason.
# An entry covers the functions nested in it, or a class's methods.
ALLOWED_UNREACHED = {
    # Hooked or called by the benchmark (perfbench/), which wraps the tape's
    # primitives and these functions by name and reads these members.
    "tensor.subtract": "a traced primitive of the benchmark",
    "tensor.transpose": "a traced primitive of the benchmark",
    "tensor.concat": "a traced primitive of the benchmark; the tests' per-frame attention reference",
    "tensor.stack": "a traced primitive of the benchmark",
    "tensor.sigmoid": "a traced primitive of the benchmark",
    "tensor.tanh": "a traced primitive of the benchmark; its VJP test corrupts it",
    "tensor.log": "a traced primitive of the benchmark",
    "tensor.active_tape": "the benchmark reads the active tape",
    "tensor.gru_scan.<locals>.vjp_h0": "only gru_cell_step, hooked by the benchmark, passes a tracked state",
    "nn.gru_cell_step": "hooked by the benchmark",
    "nn.GruParams.input_dim": "read by gru_cell_step",
    "data.dataset_content_hash": "hooked by the benchmark by name; one load's content_hash",
    "training.TrainResult.prepared": "read by the benchmark's workloads",
    # Chosen by matrix size and CPU count: the paper-scale workload reaches it.
    "tensor.TwoCpus": "splits GEMMs, scan steps and Adam updates above a size, on two CPUs",
    # Runs only in process-pool workers, which the profiler does not follow.
    "ablation._use_dataset": "the initializer of a grid's pool workers",
    "verify._n_params": "orders the gradcheck cells for a pool",
    # Public API for tests of new adjoints.
    "gradcheck.grad_check": "the finite-difference oracle for one tensor",
    # Runs when the package is imported, before the profiler starts.
    "tensor._Tapes.__init__": "builds the main thread's tape stack",
}

PACKAGE = Path(poseattn.__file__).resolve().parent


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-qualified name of every named function in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                        found[(str(path), const.co_firstlineno)] = f"{path.stem}.{const.co_qualname}"
    return found


def _allowed(name: str) -> bool:
    return any(name == entry or name.startswith(entry + ".") for entry in ALLOWED_UNREACHED)


SYNTH = [
    ["--kind", "active_hand", "--classes", "2", "--feat-dim", "8", "--clip-len", "4", "--counts", "8", "4", "4",
     "--seed", "1", "--noise", "0.1", "--distractor", "0.5", "--template-scale", "1.5", "--slot-amp", "0.3"],
    ["--kind", "active_hand", "--classes", "2", "--feat-dim", "8", "--clip-len", "4", "--counts", "4", "2", "2",
     "--equal-slots"],
    ["--kind", "temporal_event", "--classes", "2", "--feat-dim", "8", "--clip-len", "4", "--seq-len", "6",
     "--event-width", "2", "--counts", "4", "2", "2", "--fake-events", "1", "--motion-amp", "1.5",
     "--fix-window-at-end"],
]
# The dataset every train, eval and ablate run reads: all three sequence kinds.
COMBINED = ["--kind", "combined", "--classes", "2", "--feat-dim", "8", "--clip-len", "4", "--event-width", "2",
            "--counts", "12", "4", "4", "--kind-mix", "0.4", "0.3", "0.3"]
MODEL = ["--feat-dim", "8", "--clip-len", "4", "--rgb-hidden", "3", "--pose-hidden", "3", "--pose-layers", "2",
         "--attn-hidden", "3", "--temporal-hidden", "3", "--batch-size", "8", "--max-epochs", "1", "--patience", "1",
         "--lr", "0.01", "--dropout", "0.5", "--seed", "0"]


def _matrix(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every run, in order."""
    data = str(tmp / "combined.bin")
    runs = [(["synth", "--out", str(tmp / f"s{i}.bin"), *argv], 0) for i, argv in enumerate(SYNTH)]
    runs.append((["synth", "--out", data, "--manifest-out", str(tmp / "combined.json"), *COMBINED], 0))
    # Every combination of choices, once with every config flag on and once off.
    for on in (True, False):
        flags = tmp / f"flags-{on}.json"
        flags.write_text(json.dumps(dict.fromkeys(_CONFIG_FLAGS, on)))
        for values in itertools.product(*CONFIG_CHOICES.values()):
            choices = [x for name, value in zip(CONFIG_CHOICES, values) for x in (f"--{name}", value)]
            runs.append((["train", "--config", str(flags), "--dataset", data, *MODEL, *choices], 0))
    run = tmp / "run"
    checkpoint = ["--checkpoint", str(run / "checkpoint.bin"), "--dataset", data]
    runs += [
        (["train", "--dataset", data, "--out", str(run), "--variant", "two_stream", "--temporal", *MODEL], 0),
        (["eval", *checkpoint, "--split", "test_pool", "--allow-other-dataset"], 0),
        (["dump-attention", *checkpoint, "--split", "test_seeds", "--allow-other-dataset",
          "--out", str(tmp / "attention.jsonl"), "--limit", "2"], 0),
        (["ablate", "--dataset", data, "--out", str(tmp / "grid"), *MODEL, "--seeds", "0", "--two-stream",
          "--workers", "1", "--no-temporal"], 0),
        # Grid rows set conditioning and temporal attention, and cells are RGB runs.
        (["ablate", "--config", str(tmp / "flags-True.json"), "--dataset", data, "--out", str(tmp / "rows"),
          *MODEL, "--variant", "pose", "--conditioning", "hidden", "--pooling", "last", "--temporal",
          "--seeds", "1", "--rows", "sum,sta_both", "--no-dumps"], 0),
        (["gradcheck", "--eps", "1e-5", "--tol", "1e-5", "--seed", "0"], 0),
        (["train", "--variant", "no_such_variant"], 1),
        # A step that fails numerically; the run below injects it.
        (["train", "--dataset", data, "--out", str(tmp / "aborted"), *MODEL, "--max-epochs", "2", "--no-temporal"], 3),
    ]
    return runs


def _options(parser) -> dict[str, set[str]]:
    """Each subcommand's option strings, but ``--help``."""
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_every_subcommand_and_flag_has_a_run(tmp_path):
    runs = _matrix(tmp_path)
    for name, options in _options(cli.build_parser()).items():
        argvs = [argv for argv, _ in runs if argv[0] == name]
        assert argvs, f"no run of subcommand {name!r}"
        missing = options - {x for argv in argvs for x in argv}
        assert not missing, f"no run of {name!r} passes {sorted(missing)}"


def test_every_function_in_src_is_reached(tmp_path, monkeypatch, capsys):
    # One CPU: gradcheck cells and the grid run in this process, where the
    # profiler sees them.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    runs = _matrix(tmp_path)
    adam_step = training.adam_step
    steps = []

    def failing_second_epoch(*args):
        steps.append(None)
        if len(steps) > 2:
            raise NumericError("adam_step: injected non-finite gradient")
        adam_step(*args)

    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    failures = []
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv, want in runs:
            if argv[0] == "train" and want == 3:
                monkeypatch.setattr(training, "adam_step", failing_second_epoch)
            code = cli.main(argv)
            if code != want:
                failures.append((argv, code, capsys.readouterr().err))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert not failures, failures

    defined = _defined_functions()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes.values()}
    unreached = sorted(name for key, name in defined.items() if key not in reached and not _allowed(name))
    assert not unreached, "functions no run reached: " + ", ".join(unreached)
    # An entry names a function, or a class by the methods it defines.
    stale = sorted(e for e in ALLOWED_UNREACHED if not any(n == e or n.startswith(e + ".") for n in defined.values()))
    assert not stale, f"allowed entries that name no function or class: {stale}"
