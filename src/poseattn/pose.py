"""Deterministic pose preprocessing.

Body-centered normalization, velocity/acceleration augmentation, per-frame
motion statistics, and subsequence window sampling.
All functions are pure; augmentation and motion statistics run on the full
sequence, and windows index into the result (backward differences are
causal, so no window sees future frames).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class MissingSubjectError(ValueError):
    """Subject 1 is required as the normalization anchor."""


@dataclass
class PoseSequence:
    """Per-frame 3D joints for up to two subjects.

    joints3d: (T, 2, J, 3) meters; an absent subject is all-zero and flagged.
    """

    joints3d: np.ndarray
    subject_present: np.ndarray  # (2,) bool
    label: int
    seq_id: str = ""

    def __post_init__(self) -> None:
        self.joints3d = np.asarray(self.joints3d, dtype=np.float64)
        self.subject_present = np.asarray(self.subject_present, dtype=bool)
        if self.joints3d.ndim != 4 or self.joints3d.shape[1] != 2 or self.joints3d.shape[3] != 3:
            raise ValueError(f"joints3d must be (T, 2, J, 3), got {self.joints3d.shape}")

    @property
    def n_frames(self) -> int:
        return self.joints3d.shape[0]

    @property
    def n_joints(self) -> int:
        return self.joints3d.shape[2]

    def pose_vectors(self) -> np.ndarray:
        """Flatten to (T, 2*J*3), subject-major."""
        return self.joints3d.reshape(self.n_frames, -1)

    def hand_mask(self) -> np.ndarray:
        """(4,) presence per hand slot: slots 0-1 subject 1, slots 2-3 subject 2."""
        return np.repeat(self.subject_present, 2)


def normalize_pose(seq: PoseSequence, spine_joint: int = 1) -> PoseSequence:
    """Translate every present subject by subject 1's spine offset, per frame.

    Subject 1's spine lands at the origin; the shared translation preserves
    inter-person geometry.  Absent subjects stay all-zero.
    """
    if not seq.subject_present[0]:
        raise MissingSubjectError("normalize_pose: subject 1 absent, no anchor joint")
    if not 0 <= spine_joint < seq.n_joints:
        raise ValueError(f"spine joint {spine_joint} outside [0, {seq.n_joints})")
    offsets = seq.joints3d[:, 0, spine_joint, :]  # (T, 3)
    joints = seq.joints3d.copy()
    for s in range(2):
        if seq.subject_present[s]:
            joints[:, s, :, :] -= offsets[:, None, :]
    return replace(seq, joints3d=joints)


def velocity_acceleration(pose_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward differences, zero-padded: velocity from t=1, acceleration from t=2."""
    vel = np.zeros_like(pose_vecs)
    vel[1:] = pose_vecs[1:] - pose_vecs[:-1]
    acc = np.zeros_like(pose_vecs)
    acc[2:] = vel[2:] - vel[1:-1]
    return vel, acc


def augment_pose(seq: PoseSequence) -> np.ndarray:
    """Per-frame concat(pose, velocity, acceleration), shape (T, 3P) for pose vectors of width P."""
    if seq.n_frames < 1:
        raise ValueError("augment_pose: empty sequence")
    pose = seq.pose_vectors()
    vel, acc = velocity_acceleration(pose)
    return np.concatenate([pose, vel, acc], axis=1)


def motion_stats(seq: PoseSequence) -> np.ndarray:
    """Per-frame (sum |velocity|, sum |acceleration|) over the full pose vector; (T, 2)."""
    vel, acc = velocity_acceleration(seq.pose_vectors())
    return np.stack([np.abs(vel).sum(axis=1), np.abs(acc).sum(axis=1)], axis=1)


def eval_window_starts(length: int, window: int) -> list[int]:
    """Five evenly spaced starts over [0, length - window], clamped at 0."""
    span = max(length - window, 0)
    return [round(k * span / 4) for k in range(5)]


def window_indices(length: int, start: int, window: int) -> np.ndarray:
    """Frame indices for one window; short sequences clamp-repeat the last frame."""
    return np.minimum(start + np.arange(window), length - 1)


def sample_window(length: int, window: int, rng: np.random.Generator) -> np.ndarray:
    """Frame indices of one uniformly random training window."""
    if window <= 0:
        raise ValueError(f"window length must be positive, got {window}")
    start = int(rng.integers(0, max(length - window, 0) + 1))
    return window_indices(length, start, window)
