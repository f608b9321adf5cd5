import numpy as np
import pytest

from poseattn.pose import (
    MissingSubjectError,
    PoseSequence,
    augment_pose,
    eval_window_starts,
    motion_stats,
    normalize_pose,
    sample_window,
    window_indices,
)


def make_seq(joints, present=(True, True), label=0):
    return PoseSequence(joints3d=joints, subject_present=np.array(present), label=label)


def random_seq(rng, t=6, j=5, present=(True, True)):
    joints = rng.normal(size=(t, 2, j, 3))
    if not present[1]:
        joints[:, 1] = 0.0
    return make_seq(joints, present)


class TestNormalize:
    def test_spine_lands_at_origin_every_frame(self):
        seq = random_seq(np.random.default_rng(0))
        out = normalize_pose(seq, spine_joint=2)
        assert np.allclose(out.joints3d[:, 0, 2, :], 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        seq = random_seq(rng)
        shifted = make_seq(seq.joints3d + np.array([5.0, -3.0, 11.0]))
        a = normalize_pose(seq, 1).joints3d
        b = normalize_pose(shifted, 1).joints3d
        assert np.allclose(a, b)

    def test_same_translation_applied_to_both_subjects(self):
        rng = np.random.default_rng(2)
        seq = random_seq(rng)
        out = normalize_pose(seq, 0)
        rel_before = seq.joints3d[:, 1] - seq.joints3d[:, 0]
        rel_after = out.joints3d[:, 1] - out.joints3d[:, 0]
        assert np.allclose(rel_before, rel_after)

    def test_absent_subject_stays_zero(self):
        seq = random_seq(np.random.default_rng(3), present=(True, False))
        out = normalize_pose(seq, 1)
        assert np.array_equal(out.joints3d[:, 1], np.zeros_like(out.joints3d[:, 1]))

    def test_missing_anchor_subject_rejected(self):
        seq = random_seq(np.random.default_rng(4), present=(False, True))
        with pytest.raises(MissingSubjectError):
            normalize_pose(seq, 1)

    def test_idempotent(self):
        seq = random_seq(np.random.default_rng(5))
        once = normalize_pose(seq, 1)
        twice = normalize_pose(once, 1)
        assert np.array_equal(once.joints3d, twice.joints3d)

    def test_input_not_mutated(self):
        seq = random_seq(np.random.default_rng(6))
        before = seq.joints3d.copy()
        normalize_pose(seq, 1)
        assert np.array_equal(seq.joints3d, before)


class TestAugment:
    def test_constant_pose_has_zero_derivatives(self):
        joints = np.broadcast_to(
            np.random.default_rng(7).normal(size=(1, 2, 5, 3)), (6, 2, 5, 3)
        ).copy()
        seq = make_seq(joints)
        aug = augment_pose(seq)
        p = seq.pose_vectors().shape[1]
        assert np.array_equal(aug[:, :p], seq.pose_vectors())
        assert np.array_equal(aug[:, p:], np.zeros((6, 2 * p)))

    def test_linear_motion(self):
        c = np.random.default_rng(8).normal(size=(2, 5, 3))
        joints = np.stack([t * c for t in range(6)])
        seq = make_seq(joints)
        aug = augment_pose(seq)
        p = seq.pose_vectors().shape[1]
        vel = aug[:, p : 2 * p]
        acc = aug[:, 2 * p :]
        assert np.allclose(vel[1:], np.tile(c.reshape(-1), (5, 1)))
        assert np.array_equal(vel[0], np.zeros(p))
        assert np.allclose(acc[2:], 0.0)

    def test_boundary_zeros(self):
        seq = random_seq(np.random.default_rng(9))
        aug = augment_pose(seq)
        p = seq.pose_vectors().shape[1]
        assert np.array_equal(aug[0, p:], np.zeros(2 * p))
        assert np.array_equal(aug[1, 2 * p :], np.zeros(p))

    def test_reference_dims_25_joints(self):
        seq = random_seq(np.random.default_rng(10), t=4, j=25)
        assert seq.pose_vectors().shape == (4, 150)
        assert augment_pose(seq).shape == (4, 450)

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(11)
        seq = random_seq(rng, t=8)
        rev = make_seq(seq.joints3d[::-1].copy())
        p = seq.pose_vectors().shape[1]
        v = augment_pose(seq)[:, p : 2 * p]
        v_rev = augment_pose(rev)[:, p : 2 * p]
        assert np.allclose(v_rev[1:], -v[1:][::-1])


class TestMotionStats:
    def test_static_sequence_is_zero(self):
        seq = make_seq(np.ones((5, 2, 4, 3)))
        assert np.array_equal(motion_stats(seq), np.zeros((5, 2)))

    def test_single_moving_joint(self):
        joints = np.zeros((6, 2, 4, 3))
        joints[:, 0, 2, 0] = np.arange(6)  # one joint, 1 unit per frame along x
        m = motion_stats(make_seq(joints))
        assert np.allclose(m[1:, 0], 1.0)
        assert np.allclose(m[2:, 1], 0.0)
        assert m[0, 0] == 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(12)
        seq = random_seq(rng)
        shifted = make_seq(seq.joints3d + 17.0)
        assert np.allclose(motion_stats(seq), motion_stats(shifted))

    def test_linear_scaling(self):
        rng = np.random.default_rng(13)
        seq = random_seq(rng)
        m = motion_stats(seq)
        for s in (0.0, 0.5, 3.0):
            scaled = make_seq(s * seq.joints3d)
            assert np.allclose(motion_stats(scaled), s * m)

    def test_shape_and_flattening(self):
        seq = random_seq(np.random.default_rng(14), t=20)
        m = motion_stats(seq)
        assert m.shape == (20, 2)
        assert m.reshape(-1).shape == (40,)


class TestWindows:
    def test_eval_starts_evenly_spaced(self):
        assert eval_window_starts(100, 20) == [0, 20, 40, 60, 80]

    def test_eval_starts_degenerate(self):
        assert eval_window_starts(20, 20) == [0, 0, 0, 0, 0]

    def test_eval_always_five_windows_of_length_t(self):
        for length in (3, 20, 21, 37, 100):
            starts = eval_window_starts(length, 20)
            windows = [window_indices(length, start, 20) for start in starts]
            assert len(windows) == 5
            assert all(len(w) == 20 for w in windows)
            assert all(w.max() < length for w in windows)

    def test_train_deterministic_under_seed(self):
        a = sample_window(100, 20, np.random.default_rng(3))
        b = sample_window(100, 20, np.random.default_rng(3))
        assert a.shape == (20,)
        assert np.array_equal(a, b)

    def test_short_sequence_clamps_last_frame(self):
        w = window_indices(3, 0, 6)
        assert np.array_equal(w, [0, 1, 2, 2, 2, 2])

    def test_bad_mode_and_length(self):
        # The sampler has one mode (training); eval windows come from
        # eval_window_starts.  A non-positive length is still rejected.
        with pytest.raises(ValueError, match="positive"):
            sample_window(10, 0, np.random.default_rng(0))
