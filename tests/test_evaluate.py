"""Tests for cluster-to-action matching and segmentation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totseg.errors import DataError
from totseg.evaluate import (
    UNMATCHED,
    EvalReport,
    apply_mapping,
    contingency,
    evaluate_activity,
    hungarian_match,
    mof,
    segment_f1,
)

import oracles


def random_run_labels(num_frames, num_labels, rng, mean_run=5):
    """Random label sequence built from variable-length runs."""
    labels = []
    while len(labels) < num_frames:
        labels.extend([int(rng.integers(num_labels))] * int(rng.integers(1, 2 * mean_run)))
    return np.asarray(labels[:num_frames], dtype=np.int64)


class TestContingency:
    def test_hand_counts(self):
        table = contingency([0, 0, 1, 1], [0, 1, 1, 1], 2, 2)
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    def test_empty_inputs_give_zero_table(self):
        np.testing.assert_array_equal(contingency([], [], 2, 3), np.zeros((2, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            contingency([0, 1], [0], 2, 2)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match=r"pred ids outside \[0, 2\)"):
            contingency([0, 2], [0, 0], 2, 2)
        with pytest.raises(ValueError, match=r"gt ids outside \[0, 2\)"):
            contingency([0, 0], [0, -1], 2, 2)


class TestHungarianMatch:
    def test_diagonal_table_maps_identically(self):
        assert hungarian_match(np.eye(3) * 50) == {0: 0, 1: 1, 2: 2}

    def test_cyclic_renaming_recovered(self):
        counts = np.zeros((3, 3))
        for i in range(3):
            counts[i, (i + 1) % 3] = 100
        assert hungarian_match(counts) == {0: 1, 1: 2, 2: 0}

    def test_total_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            num_pred = int(rng.integers(1, 8))
            num_gt = int(rng.integers(1, 8))
            counts = rng.integers(0, 50, size=(num_pred, num_gt))
            mapping = hungarian_match(counts)
            total = sum(int(counts[c, a]) for c, a in mapping.items())
            assert total == oracles.assignment_bruteforce(counts)

    def test_extra_clusters_stay_unmapped(self):
        counts = np.array([[10, 0], [0, 10], [5, 5]])
        mapping = hungarian_match(counts)
        assert len(mapping) == 2
        assert mapping[0] == 0
        assert mapping[1] == 1
        assert 2 not in mapping

    def test_non_table_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            hungarian_match(np.zeros(4))


class TestApplyMapping:
    def test_rewrites_and_flags_unmapped(self):
        out = apply_mapping([0, 1, 2, 1], {0: 5, 1: 3})
        np.testing.assert_array_equal(out, [5, 3, UNMATCHED, 3])


class TestMof:
    def test_perfect(self):
        assert mof([1, 2, 3], [1, 2, 3]) == 1.0

    def test_nothing_right(self):
        assert mof([0, 0], [1, 2]) == 0.0

    def test_hand_fraction(self):
        pred = [0] * 7 + [1] * 3
        gt = [0] * 7 + [2] * 3
        assert mof(pred, gt) == pytest.approx(0.7)

    def test_empty_inputs(self):
        assert mof([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mof([0], [0, 1])


class TestSegmentF1:
    def test_exact_match_is_one(self):
        gt = [0, 0, 1, 1, 1, 2]
        assert segment_f1(gt, gt) == 1.0

    def test_single_prediction_covering_one_of_three(self):
        # The all-2 prediction fully covers the length-6 ground-truth
        # segment (1 TP) and misses the other two: P = 1, R = 1/3.
        gt = [0] * 2 + [1] * 2 + [2] * 6
        pred = [2] * 10
        assert segment_f1(pred, gt) == pytest.approx(0.5)

    def test_gt_and_iou_conventions_disagree_on_sprawl(self):
        # A length-30 prediction over a length-10 ground-truth segment:
        # full coverage under the gt convention (ratio 1.0), but IoU is
        # only 1/3 and fails the 0.5 bar.
        gt = np.array([0] * 10 + [1] * 20)
        pred = np.zeros(30, dtype=np.int64)
        assert segment_f1(pred, gt, overlap="gt") == pytest.approx(2.0 / 3.0)
        assert segment_f1(pred, gt, overlap="iou") == 0.0

    def test_each_prediction_detects_at_most_one_segment(self):
        gt = [0, 0, 1, 0, 0]
        pred = [0, 0, 0, 0, 0]
        # One predicted segment, two same-label ground-truth segments:
        # only one can claim it.
        assert segment_f1(pred, gt) == pytest.approx(0.5)

    def test_unmatched_frames_never_detect_but_still_cost_precision(self):
        gt = [0, 0, 1, 1]
        pred = [UNMATCHED, UNMATCHED, 1, 1]
        # The UNMATCHED run can detect nothing, yet it is still a predicted
        # segment: P = 1/2, R = 1/2.
        assert segment_f1(pred, gt) == pytest.approx(0.5)

    @pytest.mark.parametrize("overlap", ["gt", "iou"])
    def test_matches_frame_counting_oracle(self, overlap):
        rng = np.random.default_rng(1)
        for _ in range(60):
            gt = random_run_labels(50, 4, rng)
            pred = random_run_labels(50, 4, rng)
            got = segment_f1(pred, gt, overlap=overlap)
            want = oracles.f1_by_frame_counting(pred, gt, overlap=overlap)
            assert got == pytest.approx(want, abs=1e-12)

    def test_bad_overlap_mode_rejected(self):
        with pytest.raises(ValueError, match="overlap must be"):
            segment_f1([0], [0], overlap="union")


class TestEvaluateActivity:
    def two_videos(self):
        gt0 = np.array([0] * 5 + [1] * 5)
        gt1 = np.array([0] * 3 + [1] * 4 + [2] * 3)
        return ["v0", "v1"], [gt0, gt1]

    def test_ground_truth_scores_itself_perfectly(self):
        ids, gts = self.two_videos()
        report = evaluate_activity(ids, gts, gts, 3, 3, activity="toy")
        assert report.mof == 1.0
        assert report.f1 == 1.0
        assert report.mapping == {0: 0, 1: 1, 2: 2}
        assert [v.video_id for v in report.videos] == ids
        assert all(v.frame_accuracy == 1.0 and v.f1 == 1.0 for v in report.videos)

    def test_cluster_relabeling_changes_nothing(self):
        ids, gts = self.two_videos()
        renamed = [(gt + 2) % 3 for gt in gts]
        report = evaluate_activity(ids, renamed, gts, 3, 3)
        assert report.mof == 1.0
        assert report.f1 == 1.0
        assert report.mapping == {0: 1, 1: 2, 2: 0}

    def test_mapping_is_pooled_across_videos(self):
        # Each video alone is ambiguous; pooling the table forces the
        # assignment that explains the majority of frames.
        ids = ["a", "b"]
        gts = [np.array([0] * 8 + [1] * 2), np.array([0] * 2 + [1] * 2)]
        preds = [np.array([0] * 10), np.array([1] * 4)]
        report = evaluate_activity(ids, preds, gts, 2, 2)
        assert report.mapping == {0: 0, 1: 1}
        assert report.mof == pytest.approx(10 / 14)

    def test_pooled_mof_weights_videos_by_length(self):
        # One action, two clusters: the assignment goes to cluster 1, which
        # explains 8 of 10 pooled frames. MOF is the pooled 0.8, not the
        # 0.5 mean of per-video accuracies.
        ids = ["short", "long"]
        gts = [np.zeros(2, dtype=int), np.zeros(8, dtype=int)]
        preds = [np.zeros(2, dtype=int), np.ones(8, dtype=int)]
        report = evaluate_activity(ids, preds, gts, 2, 1)
        assert report.mapping == {1: 0}
        assert report.mof == pytest.approx(0.8)
        assert report.videos[0].frame_accuracy == 0.0
        assert report.videos[1].frame_accuracy == 1.0

    def test_background_exclusion_ignores_predictions_there(self):
        ids = ["v0"]
        gt = [np.array([9, 9, 0, 0, 1, 1, 9])]
        base = None
        for junk in (0, 1):
            pred = [np.array([junk, junk, 0, 0, 1, 1, junk])]
            report = evaluate_activity(ids, pred, gt, 2, 10, exclude={9})
            if base is None:
                base = report
            assert report.mof == base.mof == 1.0
            assert report.f1 == base.f1 == 1.0
            assert report.mapping == base.mapping

    def test_fully_excluded_video_scores_zero_but_pool_survives(self):
        ids = ["all_bg", "real"]
        gts = [np.array([9, 9, 9]), np.array([0, 0, 1, 1])]
        preds = [np.array([0, 1, 0]), np.array([0, 0, 1, 1])]
        report = evaluate_activity(ids, preds, gts, 2, 10, exclude={9})
        assert report.mof == 1.0
        assert report.videos[0].frame_accuracy == 0.0
        assert report.videos[0].f1 == 0.0
        assert report.videos[1].frame_accuracy == 1.0

    def test_everything_excluded_rejected(self):
        with pytest.raises(ValueError, match="no frames left to match"):
            evaluate_activity(
                ["v0"], [np.array([0, 1])], [np.array([9, 9])], 2, 10, exclude={9}
            )

    def test_everything_excluded_is_a_data_error_naming_the_activity(self):
        with pytest.raises(DataError, match="activity 'cook': no frames left"):
            evaluate_activity(
                ["v0"], [np.array([0, 1])], [np.array([9, 9])], 2, 10,
                activity="cook", exclude={9},
            )

    def test_video_length_mismatch_names_the_video(self):
        ids, gts = self.two_videos()
        preds = [gts[0], gts[1][:-1]]
        with pytest.raises(ValueError, match="video v1: 9 predicted frames vs 10"):
            evaluate_activity(ids, preds, gts, 3, 3)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError, match="got 2 ids, 1 predictions"):
            evaluate_activity(["a", "b"], [np.zeros(1)], [np.zeros(1), np.zeros(1)], 1, 1)

    def test_empty_video_list_rejected(self):
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate_activity([], [], [], 1, 1)

    def test_report_text_layout(self):
        ids, gts = self.two_videos()
        text = evaluate_activity(ids, gts, gts, 3, 3, activity="toy").to_text()
        lines = text.splitlines()
        assert lines[0] == "activity = toy"
        assert lines[1] == "mof = 1.0000"
        assert lines[2] == "f1 = 1.0000"
        assert lines[3] == "mapping = 0:0 1:1 2:2"
        assert lines[4] == "video v0 acc = 1.0000 f1 = 1.0000"
        assert lines[5] == "video v1 acc = 1.0000 f1 = 1.0000"
        assert text.endswith("\n")


@st.composite
def label_pairs(draw):
    """(pred, gt, permutation): two label sequences over ids 0..k-1."""
    frames = draw(st.integers(1, 60))
    k = draw(st.integers(1, 6))
    labels = st.lists(st.integers(0, k - 1), min_size=frames, max_size=frames)
    permutation = draw(st.permutations(range(k)))
    return np.array(draw(labels)), np.array(draw(labels)), np.array(permutation)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(label_pairs())
def test_mof_is_a_fraction_and_f1_ignores_consistent_relabeling(case):
    pred, gt, permutation = case
    k = permutation.size
    assert 0.0 <= mof(pred, gt) <= 1.0
    report = evaluate_activity(["v"], [pred], [gt], k, k)
    relabeled = evaluate_activity(["v"], [permutation[pred]], [gt], k, k)
    assert 0.0 <= report.mof <= 1.0
    assert relabeled.mof == report.mof
    for overlap in ("gt", "iou"):
        assert segment_f1(permutation[pred], permutation[gt], overlap) == segment_f1(
            pred, gt, overlap
        )
