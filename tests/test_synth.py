import collections

import numpy as np
import pytest

from poseattn.data import DatasetError
from poseattn.pose import motion_stats, normalize_pose
from poseattn.synth import (
    SPINE_JOINT,
    SyntheticSpec,
    balanced_fill,
    event_displacement,
    generate,
    template_sum_bayes_rate,
)

SMALL = dict(counts=(40, 12, 12))


def _nearest_template_accuracy(dataset, split, mean_feature):
    """Accuracy on ``split`` of the nearest class template to
    ``mean_feature(seqdata)``, an oracle's summary of one sequence."""
    c = dataset.manifest.n_classes
    templates = np.zeros((c, dataset.manifest.feature_dim))
    templates[np.arange(c), np.arange(c)] = dataset.manifest.provenance["spec"]["template_scale"]
    items = [(r, dataset.sequences[r.seq_id]) for r in dataset.manifest.records if r.split == split]
    correct = 0
    for record, seqdata in items:
        mean = mean_feature(seqdata)
        correct += int(np.argmin(((templates - mean) ** 2).sum(axis=1))) == record.label
    return correct / len(items)


def oracle_active_hand_accuracy(dataset, split="test_seeds"):
    """Nearest-template classification of the mean active-slot feature (oracle attention)."""

    def mean_active(seqdata):
        frames = np.where(seqdata.gt_slot >= 0)[0]
        return seqdata.features[frames, seqdata.gt_slot[frames]].astype(np.float64).mean(axis=0)

    return _nearest_template_accuracy(dataset, split, mean_active)


def oracle_temporal_event_accuracy(dataset, split="test_seeds"):
    """Nearest-template classification of the mean in-window feature over all slots."""

    def mean_in_window(seqdata):
        lo, hi = seqdata.gt_window
        return seqdata.features[lo:hi].astype(np.float64).mean(axis=(0, 1))

    return _nearest_template_accuracy(dataset, split, mean_in_window)


def test_generation_is_deterministic_bitwise():
    spec = SyntheticSpec(kind="combined", seed=3, **SMALL)
    a, b = generate(spec), generate(spec)
    assert [r.to_json() for r in a.manifest.records] == [r.to_json() for r in b.manifest.records]
    for sid in a.sequences:
        assert np.array_equal(a.sequences[sid].features, b.sequences[sid].features)
        assert np.array_equal(a.sequences[sid].seq.joints3d, b.sequences[sid].seq.joints3d)


def test_split_sizes_and_val_carving():
    spec = SyntheticSpec(kind="active_hand", counts=(100, 30, 20), seed=0)
    ds = generate(spec)
    sizes = {s: len(ds.manifest.split_ids(s)) for s in ("train", "val", "test_seeds", "test_pool")}
    assert sizes["val"] == 5  # 5% of the train pool
    assert sizes["train"] == 95
    assert sizes["test_seeds"] == 30
    assert sizes["test_pool"] == 20


def test_class_priors_balanced_within_one():
    ds = generate(SyntheticSpec(kind="combined", counts=(50, 21, 19), seed=1))
    for split in ("train", "val", "test_seeds", "test_pool"):
        labels = [r.label for r in ds.manifest.records if r.split == split]
        counts = collections.Counter(labels)
        assert max(counts.values()) - min(counts.values()) <= 1


class TestActiveHand:
    def test_sum_ambiguity_rate_is_chance(self):
        ds = generate(SyntheticSpec(kind="active_hand", seed=2, **SMALL))
        rates = ds.manifest.provenance["sum_bayes_rate"]
        assert all(abs(r - 0.25) < 1e-12 for r in rates.values())

    def test_oracle_is_perfect_without_noise(self):
        ds = generate(SyntheticSpec(kind="active_hand", noise=0.0, seed=3, **SMALL))
        assert oracle_active_hand_accuracy(ds, "test_seeds") == 1.0
        assert oracle_active_hand_accuracy(ds, "test_pool") == 1.0

    def test_slot_sum_is_label_independent(self):
        # Noise-free, distractor-free: the sum over slots of the class dims is
        # the same constant for every frame of every sequence.
        spec = SyntheticSpec(kind="active_hand", noise=0.0, distractor=0.0, seed=4, **SMALL)
        ds = generate(spec)
        sums = {
            tuple(np.round(sd.features[:, :, :4].sum(axis=1).reshape(-1, 4).mean(axis=0), 9))
            for sd in ds.sequences.values()
        }
        assert len(sums) == 1

    def test_ground_truth_slot_recorded_every_frame(self):
        ds = generate(SyntheticSpec(kind="active_hand", seed=5, **SMALL))
        for sd in ds.sequences.values():
            assert (sd.gt_slot >= 0).all()
            assert len(set(sd.gt_slot.tolist())) == 1

    def test_active_slot_is_pose_marked(self):
        ds = generate(SyntheticSpec(kind="active_hand", seed=6, **SMALL))
        from poseattn.synth import SLOT_JOINTS, SLOT_SUBJECT

        for sd in list(ds.sequences.values())[:10]:
            slot = int(sd.gt_slot[0])
            subject = SLOT_SUBJECT[slot]
            joints = sd.seq.joints3d
            moving = np.abs(np.diff(joints, axis=0)).sum(axis=(0, 3))  # (2, J)
            group = list(SLOT_JOINTS[slot])
            assert moving[subject, group].sum() > 10 * (
                moving.sum() - moving[subject, group].sum()
            )

    def test_equal_slots_degenerate_control(self):
        ds = generate(SyntheticSpec(kind="active_hand", equal_slots=True, noise=0.0,
                                    distractor=0.0, seed=7, **SMALL))
        for sd in list(ds.sequences.values())[:5]:
            f = sd.features
            assert np.array_equal(f[:, 0, :], f[:, 1, :])
            assert np.array_equal(f[:, 0, :], f[:, 3, :])

    def test_odd_class_count_rejected(self):
        with pytest.raises(ValueError, match="dividing 4"):
            SyntheticSpec(kind="active_hand", n_classes=3, **SMALL).validate()


class TestTemporalEvent:
    def test_motion_marks_exactly_the_window(self):
        ds = generate(SyntheticSpec(kind="temporal_event", seed=8, **SMALL))
        for sd in ds.sequences.values():
            m = motion_stats(normalize_pose(sd.seq, SPINE_JOINT))
            lo, hi = sd.gt_window
            assert (m[lo:hi].sum(axis=1) > 0).all()
            outside = np.concatenate([m[:lo], m[hi:]])
            assert np.array_equal(outside, np.zeros_like(outside))

    def test_oracle_is_perfect_without_noise(self):
        ds = generate(SyntheticSpec(kind="temporal_event", noise=0.0, seed=9, **SMALL))
        assert oracle_temporal_event_accuracy(ds, "test_seeds") == 1.0

    def test_window_fixed_at_end_control(self):
        spec = SyntheticSpec(kind="temporal_event", fix_window_at_end=True, seed=10, **SMALL)
        ds = generate(spec)
        length = spec.resolved_seq_len()
        for sd in ds.sequences.values():
            assert tuple(sd.gt_window) == (length - spec.event_width, length)

    def test_decoy_events_present_in_class_dims(self):
        spec = SyntheticSpec(kind="temporal_event", noise=0.0, distractor=0.0, seed=11, **SMALL)
        ds = generate(spec)
        hits = 0
        for sd in ds.sequences.values():
            lo, hi = sd.gt_window
            outside = [t for t in range(sd.seq.n_frames) if not lo <= t < hi]
            for t in outside:
                classes = sd.features[t, :, :4].argmax(axis=1)
                if len(set(classes.tolist())) == 1:
                    hits += 1
                    break
        assert hits > len(ds.sequences) * 0.9  # decoys in nearly every sequence


class TestCombined:
    def test_kind_mix_fractions(self):
        spec = SyntheticSpec(kind="combined", counts=(200, 10, 10), seed=12)
        ds = generate(spec)
        # Rotation sequences are identifiable by a rotating ground-truth slot.
        rotating = sum(
            1
            for r in ds.manifest.records
            if r.split in ("train", "val")
            and len(set(ds.sequences[r.seq_id].gt_slot.tolist()) - {-1}) > 1
        )
        assert abs(rotating - 0.40 * 200) <= 20

    def test_clock_makes_motion_nonzero_everywhere(self):
        ds = generate(SyntheticSpec(kind="combined", seed=13, **SMALL))
        sd = next(iter(ds.sequences.values()))
        m = motion_stats(normalize_pose(sd.seq, SPINE_JOINT))
        assert (m[1:].sum(axis=1) > 0).all()

    def test_event_window_within_bounds(self):
        spec = SyntheticSpec(kind="combined", seed=14, **SMALL)
        ds = generate(spec)
        length = spec.resolved_seq_len()
        for sd in ds.sequences.values():
            lo, hi = sd.gt_window
            assert 2 <= lo and hi <= length and hi - lo == spec.event_width


class TestHelpers:
    def test_balanced_fill_places_label_at_key(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            key = int(rng.integers(0, 4))
            label = int(rng.integers(0, 4))
            fill = balanced_fill(rng, 4, key, label)
            assert fill[key] == label
            assert sorted(fill.tolist()) == [0, 1, 2, 3]

    def test_balanced_fill_two_classes(self):
        rng = np.random.default_rng(1)
        fill = balanced_fill(rng, 2, 3, 1)
        assert fill[3] == 1
        assert sorted(fill.tolist()) == [0, 0, 1, 1]

    def test_event_displacement_velocity_support(self):
        d = event_displacement(20, 6, 4, 1.5)
        v = np.diff(np.concatenate([[0.0], d]))
        a = np.diff(np.concatenate([[0.0], v]))
        active = np.abs(v) + np.abs(a)
        assert (active[6:10] > 0).all()
        assert np.array_equal(active[:6], np.zeros(6))
        assert np.array_equal(active[10:], np.zeros(10))

    def test_template_sum_bayes_rate_balanced(self):
        spec = SyntheticSpec(kind="active_hand", **SMALL)
        from poseattn.synth import _make_plans

        plans = _make_plans(spec, np.random.default_rng(0), 100)
        assert abs(template_sum_bayes_rate(spec, plans) - 0.25) < 1e-12

    def test_an_unbalanced_fill_is_rejected_naming_the_split(self, monkeypatch):
        import poseattn.synth

        # The label in every slot: the slot-sum then gives the label away.
        monkeypatch.setattr(poseattn.synth, "balanced_fill", lambda rng, n_classes, key_slot, label: np.full(4, label))
        with pytest.raises(DatasetError, match="active-hand split train: .* above its label prior 0.2500"):
            generate(SyntheticSpec(kind="active_hand", **SMALL))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SyntheticSpec(kind="nope").validate()

    def test_feat_dim_too_small(self):
        with pytest.raises(ValueError, match="feat_dim"):
            SyntheticSpec(kind="combined", feat_dim=6).validate()

    def test_event_width_bounds(self):
        with pytest.raises(ValueError, match="event width"):
            SyntheticSpec(kind="temporal_event", event_width=1).validate()
        with pytest.raises(ValueError, match="event width"):
            SyntheticSpec(kind="temporal_event", event_width=20, clip_len=20).validate()

    def test_sequence_must_fit_clip(self):
        with pytest.raises(ValueError, match="shorter"):
            SyntheticSpec(kind="combined", seq_len=10, clip_len=20).validate()

    @pytest.mark.parametrize("field, value, match", [
        ("counts", (-5, 2, 2), "split counts"),
        ("noise", -0.1, "noise"),
        ("noise", float("nan"), "noise"),
        ("template_scale", float("nan"), "finite"),
        ("slot_motion_amp", float("inf"), "finite"),
        ("fake_events", -1, "fake events"),
        ("kind_mix", (-1.0, 1.0, 1.0), "kind mix"),
        ("kind_mix", (0.0, 0.0, 0.0), "kind mix"),
        ("seed", -1, "seed"),
    ])
    def test_a_value_the_generator_cannot_honour_is_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SyntheticSpec(kind="combined", **{field: value}).validate()
