"""Two-stream action recognition with pose-conditioned spatial and
temporal attention, built on a self-contained reverse-mode autodiff core."""

import os
import sys

# Thread settings that BLAS and OpenMP read when numpy loads them.  One
# thread unless the caller set one: a run's bits then do not depend on the
# machine, and the package's own GEMM splits (``tensor.TwoCpus``) use the
# second CPU without oversubscribing it.  A pin set after numpy has loaded does
# nothing; ``NUMPY_LOADED_BEFORE_PIN`` records that for ``timing.json``.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in THREAD_ENV:
    os.environ.setdefault(_var, "1")

from .tensor import GraphError, NumericError, ShapeError, Tape, Tensor
from .gradcheck import GradCheckResult, grad_check, grad_check_params
from .model import PoseStream, RgbStream, StreamOutput, WindowBatch, fuse_logits
from .pose import PoseSequence, augment_pose, motion_stats, normalize_pose
from .data import Dataset, DatasetManifest, load_dataset, save_dataset
from .synth import SyntheticSpec, generate
from .training import RunConfig, evaluate, run_train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetManifest",
    "GradCheckResult",
    "GraphError",
    "NumericError",
    "PoseSequence",
    "PoseStream",
    "RgbStream",
    "RunConfig",
    "ShapeError",
    "StreamOutput",
    "SyntheticSpec",
    "Tape",
    "Tensor",
    "WindowBatch",
    "augment_pose",
    "evaluate",
    "fuse_logits",
    "generate",
    "grad_check",
    "grad_check_params",
    "load_dataset",
    "motion_stats",
    "normalize_pose",
    "run_train",
    "save_dataset",
]
