"""Synthetic sequence tasks with known ground-truth attention targets.

Three generators, all pure functions of their spec:

``active_hand``
    One of the four hand slots is "active" and carries the class template;
    the other slots carry a class-balanced fill of the remaining templates,
    so the slot-sum is a label-independent constant.  Which slot is active
    is encoded only in the pose channel (the active slot's joint group
    oscillates).  A pose-conditioned attender can reach the oracle rate;
    a sum integrator is capped at the label prior by construction, and that
    cap is verified by enumerating the slot-sums before the dataset is
    accepted.

``temporal_event``
    The class template appears in all four slots, but only inside an event
    window of ``event_width`` frames at a random position; motion statistics
    are nonzero exactly on that window.  Outside it, ``fake_events`` decoy
    windows carry sustained templates of random classes, so the feature
    channel alone cannot tell the real event apart: only the motion channel
    (which conditions temporal attention and nothing else) marks it.
    Last-step and uniform-average pooling are degraded by construction.

``combined``
    A mixture of three sequence kinds sharing one label space: (a) the
    active-hand construction gated to the event window (solvable only with
    pose-conditioned spatial attention), (b) the temporal-event construction
    (solvable by any integration, best with temporal pooling), and (c) a
    rotating key slot on a fixed global schedule, phase-coded into both the
    features and a pose "clock" joint (solvable by hidden-state- or
    pose-conditioned attention, not by summing).  Pose additionally encodes
    the class pair through the marker oscillation pattern, giving the pose
    stream a partial, complementary signal for fusion experiments.

Features occupy disjoint subspaces: class templates in dims [0, C), phase
code in [C, C+4), and distractor "pool" vectors in [C+4, D).  The two test
splits differ by generation seeds (``test_seeds``) and by a disjoint
distractor pool (``test_pool``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import (
    Dataset,
    DatasetError,
    DatasetManifest,
    SequenceData,
    SequenceRecord,
    assign_validation,
)
from .pose import PoseSequence

N_JOINTS = 8
SPINE_JOINT = 0
CLOCK_JOINT = 7
# hand slot -> owning subject and joint group; slots 0-1 belong to subject 1,
# slots 2-3 to subject 2
SLOT_SUBJECT = (0, 0, 1, 1)
SLOT_JOINTS = ((1, 2, 3), (4, 5, 6), (1, 2, 3), (4, 5, 6))

_BASE_SKELETON = np.array(
    [
        [0.0, 0.0, 0.0],  # spine
        [-0.30, 0.20, 0.0],
        [-0.45, 0.00, 0.0],
        [-0.50, -0.20, 0.0],
        [0.30, 0.20, 0.0],
        [0.45, 0.00, 0.0],
        [0.50, -0.20, 0.0],
        [0.0, 0.50, 0.0],  # head, doubles as the clock joint
    ]
)

_CLOCK_OFFSETS = np.array(
    [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [-0.3, 0.0, 0.0], [0.0, -0.3, 0.0]]
)

KINDS = ("active_hand", "temporal_event", "combined")
POOL_SIZE = 32


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of a synthetic dataset; generation is a pure function of it."""

    kind: str
    n_classes: int = 4
    feat_dim: int = 16
    clip_len: int = 20
    seq_len: int | None = None  # default: clip_len for temporal_event, 2*clip_len otherwise
    event_width: int = 4
    noise: float = 0.05
    distractor: float = 0.8
    template_scale: float = 1.0
    phase_scale: float = 0.8
    motion_amp: float = 2.0
    slot_motion_amp: float = 0.4
    counts: tuple[int, int, int] = (2000, 500, 500)
    val_frac: float = 0.05
    seed: int = 0
    kind_mix: tuple[float, float, float] = (0.35, 0.25, 0.40)
    fake_events: int | None = None  # default: 2 for temporal_event, 0 otherwise
    fix_window_at_end: bool = False
    equal_slots: bool = False  # degenerate control: every slot carries the class template

    def resolved_seq_len(self) -> int:
        if self.seq_len is not None:
            return self.seq_len
        return self.clip_len if self.kind == "temporal_event" else 2 * self.clip_len

    def resolved_fake_events(self) -> int:
        if self.fake_events is not None:
            return self.fake_events
        return 2 if self.kind == "temporal_event" else 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.feat_dim < self.n_classes + 4 + 1:
            raise ValueError(
                f"feat_dim {self.feat_dim} too small: need class dims + 4 phase dims + pool dims"
            )
        if self.kind != "temporal_event" and 4 % self.n_classes != 0:
            raise ValueError(
                "balanced slot fills need n_classes dividing 4 (got "
                f"{self.n_classes}); the slot-sum ambiguity guarantee fails otherwise"
            )
        if self.kind != "active_hand":
            if not 2 <= self.event_width < self.clip_len:
                raise ValueError(f"event width must be in [2, clip_len), got {self.event_width}")
        L = self.resolved_seq_len()
        if L < self.clip_len:
            raise ValueError("sequence shorter than the clip length")
        if self.kind != "active_hand" and L - self.event_width < 2:
            raise ValueError("sequence too short to place an event window")
        amounts = (self.noise, self.distractor, self.template_scale, self.phase_scale, self.motion_amp,
                   self.slot_motion_amp, *self.kind_mix)
        if not np.isfinite(amounts).all():
            raise ValueError(f"noise, scales, amplitudes and kind mix must be finite, got {amounts}")
        if min(self.counts) < 0:
            raise ValueError(f"split counts must be >= 0, got {self.counts}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.resolved_fake_events() < 0:
            raise ValueError(f"fake events must be >= 0, got {self.fake_events}")
        if min(self.kind_mix) < 0 or sum(self.kind_mix) == 0:
            raise ValueError(f"kind mix must be fractions >= 0, not all 0, got {self.kind_mix}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def class_templates(spec: SyntheticSpec) -> np.ndarray:
    """(C, D) template bank: scaled unit vectors on the class dims."""
    bank = np.zeros((spec.n_classes, spec.feat_dim))
    bank[np.arange(spec.n_classes), np.arange(spec.n_classes)] = spec.template_scale
    return bank


def phase_vectors(spec: SyntheticSpec) -> np.ndarray:
    """(4, D) clock code shared by every slot, on dims [C, C+4)."""
    bank = np.zeros((4, spec.feat_dim))
    for p in range(4):
        bank[p, spec.n_classes + p] = spec.phase_scale
    return bank


def distractor_pool(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """(POOL_SIZE, D) distractor vectors confined to the pool dims."""
    lo = spec.n_classes + 4
    bank = np.zeros((POOL_SIZE, spec.feat_dim))
    raw = rng.normal(size=(POOL_SIZE, spec.feat_dim - lo))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    bank[:, lo:] = spec.distractor * raw
    return bank


def balanced_fill(
    rng: np.random.Generator, n_classes: int, key_slot: int, label: int
) -> np.ndarray:
    """Class index per slot: a balanced multiset with the label at the key slot.

    With 4 % n_classes == 0 the multiset holds 4/n_classes copies of every
    class, so the slot-sum of templates is the same constant for every
    sequence regardless of the label.
    """
    multiset = list(np.repeat(np.arange(n_classes), 4 // n_classes))
    multiset.remove(label)
    rng.shuffle(multiset)
    fill = np.empty(4, dtype=np.int64)
    rest = iter(multiset)
    for s in range(4):
        fill[s] = label if s == key_slot else next(rest)
    return fill


def event_displacement(length: int, start: int, width: int, amp: float) -> np.ndarray:
    """Scalar displacement path whose motion stats are nonzero exactly on the window.

    Zigzag increments for width-1 frames, then hold: velocity is nonzero on
    [start, start+width-2], acceleration on [start, start+width-1], and both
    vanish outside [start, start+width).
    """
    d = np.zeros(length)
    for k in range(width - 1):
        d[start + k] = amp * (1 + (k % 2))
    d[start + width - 1 :] = d[start + width - 2]
    return d


def marker_pattern(length: int, pair: int, amp: float) -> np.ndarray:
    """Whole-sequence oscillation marking a joint group; the shape encodes the class pair."""
    t = np.arange(length)
    if pair == 0:
        return amp * (t % 2).astype(float)
    return amp * np.array([0.0, 1.0, 2.0, 1.0])[t % 4]


def _base_pose(rng: np.random.Generator, length: int) -> np.ndarray:
    """(L, 2, J, 3): static skeletons with per-sequence scatter and a global offset."""
    joints = np.zeros((length, 2, N_JOINTS, 3))
    offset = rng.uniform(-0.5, 0.5, size=3)
    for s in range(2):
        scatter = rng.uniform(-0.05, 0.05, size=(N_JOINTS, 3))
        base = _BASE_SKELETON + scatter + offset
        base[:, 0] += 1.2 * s
        joints[:, s] = base
    return joints


def _apply_group_motion(joints: np.ndarray, slot: int, path: np.ndarray, coord: int = 0) -> None:
    subject = SLOT_SUBJECT[slot]
    for j in SLOT_JOINTS[slot]:
        joints[:, subject, j, coord] += path


def _apply_clock(joints: np.ndarray) -> None:
    length = joints.shape[0]
    joints[:, 0, CLOCK_JOINT, :] += _CLOCK_OFFSETS[np.arange(length) % 4]


def _decoy_class_map(
    rng: np.random.Generator,
    length: int,
    real_start: int,
    width: int,
    n_fakes: int,
    n_classes: int,
) -> np.ndarray:
    """(L,) map of decoy-event classes: -1 off any decoy window, else the
    sustained class of that window.  Decoys never overlap each other or the
    real window; fewer are placed when the sequence runs out of room."""
    taken = np.zeros(length, dtype=bool)
    taken[real_start : real_start + width] = True
    decoys = np.full(length, -1, dtype=np.int64)
    placed = 0
    for s in rng.permutation(length - width + 1):
        if placed == n_fakes:
            break
        if taken[s : s + width].any():
            continue
        taken[s : s + width] = True
        decoys[s : s + width] = rng.integers(0, n_classes)
        placed += 1
    return decoys


@dataclass
class _SequencePlan:
    label: int
    active_slot: int
    event_start: int
    seq_kind: str  # "spatial" | "sum_visible" | "rotation" (single-task kinds use one)


def _plan_counts(n: int, mix: tuple[float, float, float]) -> list[str]:
    names = ("spatial", "sum_visible", "rotation")
    counts = [int(round(f * n)) for f in mix]
    while sum(counts) < n:
        counts[int(np.argmax(mix))] += 1
    while sum(counts) > n:
        counts[int(np.argmax(counts))] -= 1
    plan: list[str] = []
    for name, c in zip(names, counts):
        plan.extend([name] * c)
    return plan


def _gen_sequence(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    plan: _SequencePlan,
    pool: np.ndarray,
    seq_id: str,
) -> SequenceData:
    L = spec.resolved_seq_len()
    C = spec.n_classes
    D = spec.feat_dim
    templates = class_templates(spec)
    phases = phase_vectors(spec)
    y = plan.label
    a = plan.active_slot
    w = spec.event_width
    e0 = plan.event_start
    # The rotation kind keys the signal to the global frame schedule, so it
    # spans the whole sequence; windowed kinds confine it to the event.
    whole_sequence = spec.kind == "active_hand" or plan.seq_kind == "rotation"
    window = range(L) if whole_sequence else range(e0, e0 + w)

    joints = _base_pose(rng, L)
    use_clock = spec.kind == "combined"
    if use_clock:
        _apply_clock(joints)

    if spec.kind == "active_hand":
        _apply_group_motion(joints, a, marker_pattern(L, 0, spec.slot_motion_amp))
    elif spec.kind == "temporal_event":
        _apply_group_motion(joints, a, event_displacement(L, e0, w, spec.motion_amp))
    else:  # combined: pair-patterned marker everywhere plus the event spike
        _apply_group_motion(joints, a, marker_pattern(L, y % 2, spec.slot_motion_amp))
        _apply_group_motion(joints, a, event_displacement(L, e0, w, spec.motion_amp), coord=1)

    if whole_sequence:
        decoys = np.full(L, -1, dtype=np.int64)
    else:
        decoys = _decoy_class_map(rng, L, e0, w, spec.resolved_fake_events(), C)

    feats = np.zeros((L, 4, D))
    gt_slot = np.full(L, -1, dtype=np.int32)
    for t in range(L):
        in_window = t in window
        if spec.equal_slots:
            fill = np.full(4, y)
            if in_window:
                gt_slot[t] = a
        elif not in_window:
            # Decoy windows mimic a real event in the feature channel; the
            # motion channel alone singles out the true window.
            fill = np.full(4, decoys[t]) if decoys[t] >= 0 else rng.integers(0, C, size=4)
        elif spec.kind == "active_hand" or plan.seq_kind == "spatial":
            fill = balanced_fill(rng, C, key_slot=a, label=y)
            gt_slot[t] = a
        elif spec.kind == "temporal_event" or plan.seq_kind == "sum_visible":
            fill = np.full(4, y)
        else:  # rotation: the key slot follows the global frame schedule
            key = t % 4
            fill = balanced_fill(rng, C, key_slot=key, label=y)
            gt_slot[t] = key
        frame = templates[fill]
        if use_clock:
            frame = frame + phases[t % 4]
        frame = frame + pool[rng.integers(0, POOL_SIZE, size=4)]
        if spec.noise > 0:
            frame = frame + spec.noise * rng.normal(size=(4, D))
        feats[t] = frame

    # Draw the 8 hand-pixel values that dataset format 1 stored, so that
    # every later draw, and so every generated array, stays as it was.
    rng.random(8)
    # Quantize to storage precision so the in-memory dataset equals its
    # save/load round-trip bitwise.
    seq = PoseSequence(
        joints3d=joints.astype(np.float32).astype(np.float64),
        subject_present=np.array([True, True]),
        label=y,
        seq_id=seq_id,
    )
    if spec.kind == "active_hand":
        gt_window = np.array([-1, -1], dtype=np.int32)
    else:
        gt_window = np.array([e0, e0 + w], dtype=np.int32)
    return SequenceData(
        seq=seq, features=feats.astype(np.float32), gt_slot=gt_slot, gt_window=gt_window
    )


def _make_plans(
    spec: SyntheticSpec, rng: np.random.Generator, n: int
) -> list[_SequencePlan]:
    L = spec.resolved_seq_len()
    kinds = {
        "active_hand": ["spatial"] * n,
        "temporal_event": ["sum_visible"] * n,
        "combined": _plan_counts(n, spec.kind_mix),
    }[spec.kind]
    rng.shuffle(kinds)
    plans = []
    for i in range(n):
        if spec.kind == "active_hand":
            start = 0
        elif spec.fix_window_at_end:
            start = L - spec.event_width
        else:
            start = int(rng.integers(2, L - spec.event_width + 1))
        plans.append(
            _SequencePlan(
                label=i % spec.n_classes,
                active_slot=int(rng.integers(0, 4)),
                event_start=start,
                seq_kind=kinds[i],
            )
        )
    return plans


def template_sum_bayes_rate(spec: SyntheticSpec, plans: Iterable[_SequencePlan]) -> float:
    """Best achievable accuracy of a classifier that only sees the slot-sum of templates.

    Enumerates the construction-level (noise-free) template sums of the
    balanced fills, groups identical sums, and scores each group by its
    majority label.
    """
    templates = class_templates(spec)
    groups: dict[bytes, np.ndarray] = {}
    n = 0
    for plan in plans:
        fill = balanced_fill(np.random.default_rng(0), spec.n_classes, plan.active_slot, plan.label)
        key = np.round(templates[fill].sum(axis=0), 9).tobytes()
        hist = groups.setdefault(key, np.zeros(spec.n_classes))
        hist[plan.label] += 1
        n += 1
    return sum(h.max() for h in groups.values()) / n


def generate(spec: SyntheticSpec) -> Dataset:
    """Build a dataset from the spec; deterministic in the seed, bitwise.

    An active-hand split is accepted only when a classifier of its slot-sums
    does no better than always answering its most common label: the fill is
    class-balanced, so every sequence has the same slot-sum.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    ss_pool_train, ss_pool_held, ss_val, *ss_splits = root.spawn(3 + 3)
    pool_train = distractor_pool(spec, np.random.default_rng(ss_pool_train))
    pool_held = distractor_pool(spec, np.random.default_rng(ss_pool_held))

    split_names = ("train", "test_seeds", "test_pool")
    records: list[SequenceRecord] = []
    sequences: dict[str, SequenceData] = {}
    ambiguity: dict[str, float] = {}
    for split, count, ss in zip(split_names, spec.counts, ss_splits):
        rng = np.random.default_rng(ss)
        plans = _make_plans(spec, rng, count)
        if spec.kind == "active_hand" and not spec.equal_slots and plans:
            rate = template_sum_bayes_rate(spec, plans)
            prior = np.bincount([p.label for p in plans]).max() / len(plans)
            if rate > prior:
                raise DatasetError(
                    f"active-hand split {split}: the slot-sum of templates predicts the label at rate "
                    f"{rate:.4f}, above its label prior {prior:.4f}; the fill is not class-balanced"
                )
            ambiguity[split] = rate
        pool = pool_held if split == "test_pool" else pool_train
        for i, plan in enumerate(plans):
            seq_id = f"{split}-{i:05d}"
            sequences[seq_id] = _gen_sequence(spec, rng, plan, pool, seq_id)
            records.append(
                SequenceRecord(
                    seq_id=seq_id,
                    label=plan.label,
                    split=split,
                    subjects=2,
                    n_frames=spec.resolved_seq_len(),
                )
            )
    assign_validation(records, spec.val_frac, np.random.default_rng(ss_val))
    manifest = DatasetManifest(
        n_classes=spec.n_classes,
        feature_dim=spec.feat_dim,
        n_joints=N_JOINTS,
        spine_joint=SPINE_JOINT,
        has_features=True,
        has_gt_slot=True,
        has_gt_window=True,
        provenance={
            "generator": spec.kind,
            "spec": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in vars(spec).items()
            },
            "sum_bayes_rate": ambiguity,
        },
        records=records,
    )
    return Dataset(manifest=manifest, sequences=sequences)
