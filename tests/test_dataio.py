"""Tests for feature files, label handling, catalogs, and synthetic data."""

import struct

import numpy as np
import pytest

from totseg.dataio import (
    FEATURE_MAGIC,
    DatasetCatalog,
    FeatureSequence,
    LabelMapping,
    SyntheticSpec,
    generate_synthetic,
    load_catalog,
    read_feature_header,
    read_features,
    read_labels,
    relabel_background_edges,
    write_catalog,
    write_features,
)
from totseg.errors import (
    BadMagicError,
    CatalogError,
    TruncatedPayloadError,
    UnknownLabelError,
    VersionMismatchError,
)

import oracles


def in_memory(values, video_id="vid"):
    arr = np.asarray(values, dtype=np.float64)
    return FeatureSequence(
        video_id=video_id, num_frames=arr.shape[0], dim=arr.shape[1], array=arr
    )


class TestFeatureFiles:
    # Values chosen to be exactly representable in float32 so the
    # float64 -> float32 -> float64 trip loses nothing.
    SAMPLE = [[1.5, -2.25], [0.0, 3.0], [4.5, -0.5]]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.totf"
        write_features(in_memory(self.SAMPLE), path)
        seq = read_features(path)
        assert seq.video_id == "a"
        assert (seq.num_frames, seq.dim) == (3, 2)
        np.testing.assert_array_equal(seq.array, self.SAMPLE)
        assert seq.array.dtype == np.float64

    def test_file_size_is_header_plus_payload(self, tmp_path):
        path = tmp_path / "big.totf"
        rng = np.random.default_rng(0)
        write_features(in_memory(rng.normal(size=(1000, 64))), path)
        assert path.stat().st_size == 14 + 1000 * 64 * 4

    def test_header_alone_reports_shape(self, tmp_path):
        path = tmp_path / "b.totf"
        write_features(in_memory(np.zeros((7, 5))), path)
        assert read_feature_header(path) == (7, 5)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.totf"
        write_features(in_memory(self.SAMPLE), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError, match="bad.totf"):
            read_features(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v9.totf"
        write_features(in_memory(self.SAMPLE), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError, match="version 9"):
            read_features(path)

    def test_rejects_truncated_payload_with_byte_counts(self, tmp_path):
        path = tmp_path / "cut.totf"
        write_features(in_memory(self.SAMPLE), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(
            TruncatedPayloadError, match="promises 24 payload bytes, file has 20"
        ):
            read_features(path)

    def test_rejects_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.totf"
        path.write_bytes(FEATURE_MAGIC + b"\x01")
        with pytest.raises(TruncatedPayloadError, match="shorter than the header"):
            read_features(path)

    def test_write_creates_parent_directories(self, tmp_path):
        path = tmp_path / "x" / "y" / "c.totf"
        write_features(in_memory(self.SAMPLE), path)
        assert path.exists()


class TestLoadFeatureRows:
    def disk_backed(self, tmp_path, values):
        path = tmp_path / "seq.totf"
        write_features(in_memory(values), path)
        arr = np.asarray(values)
        return FeatureSequence(
            video_id="seq", num_frames=arr.shape[0], dim=arr.shape[1], path=path
        )

    def test_seek_reads_match_full_read(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(20, 6)).astype(np.float32).astype(np.float64)
        seq = self.disk_backed(tmp_path, values)
        rows = np.array([17, 0, 5, 5, 19])
        np.testing.assert_array_equal(seq.load_feature_rows(rows), values[rows])
        np.testing.assert_array_equal(seq.load_features(), values)

    def test_in_memory_rows(self):
        values = np.arange(12.0).reshape(4, 3)
        seq = in_memory(values)
        np.testing.assert_array_equal(
            seq.load_feature_rows([2, 0]), values[[2, 0]]
        )

    def test_out_of_range_rejected(self, tmp_path):
        seq = self.disk_backed(tmp_path, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="frame index out of range for seq"):
            seq.load_feature_rows([0, 4])
        with pytest.raises(ValueError, match="out of range"):
            seq.load_feature_rows([-1])

    def test_row_past_end_of_truncated_file(self, tmp_path):
        path = tmp_path / "short.totf"
        write_features(in_memory(np.ones((5, 3))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: 14 + 4 * 3 * 4])  # keep header + 4 of 5 rows
        seq = FeatureSequence(video_id="short", num_frames=5, dim=3, path=path)
        np.testing.assert_array_equal(seq.load_feature_rows([3]), np.ones((1, 3)))
        with pytest.raises(TruncatedPayloadError, match="row 4 extends past end"):
            seq.load_feature_rows([4])


class TestLabelMapping:
    def test_from_file(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("# actions\n0 pour\n1 stir\n\n2 serve\n")
        mapping = LabelMapping.from_file(path)
        assert mapping.name_to_id == {"pour": 0, "stir": 1, "serve": 2}
        assert mapping.id_to_name[1] == "stir"
        assert mapping.num_actions == 3

    def test_round_trip(self, tmp_path):
        mapping = LabelMapping({"pour": 0, "stir": 1})
        path = tmp_path / "m.txt"
        mapping.to_file(path)
        assert LabelMapping.from_file(path).name_to_id == mapping.name_to_id

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 pour\n0 stir\n")
        with pytest.raises(CatalogError, match="one id to several names"):
            LabelMapping.from_file(path)

    def test_ids_other_than_zero_to_k_rejected(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("0 pour\n1 stir\n5 serve\n")
        with pytest.raises(CatalogError, match=r"gap.txt: action ids must be 0..2, got \[0, 1, 5\]"):
            LabelMapping.from_file(path)

    def test_name_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("0 pour\n1 stir\n2 pour\n")
        with pytest.raises(CatalogError, match="twice.txt:3: action 'pour' listed twice"):
            LabelMapping.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 pour\nstir\n")
        with pytest.raises(CatalogError, match="bad.txt:2"):
            LabelMapping.from_file(path)

    def test_empty_mapping_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(CatalogError, match="empty label mapping"):
            LabelMapping.from_file(path)

    def test_add_appends_next_id(self):
        mapping = LabelMapping({"pour": 0, "stir": 3})
        assert mapping.add("serve") == 4
        assert mapping.name_to_id["serve"] == 4
        with pytest.raises(CatalogError, match="already mapped"):
            mapping.add("pour")


class TestReadLabels:
    def test_names_become_ids(self, tmp_path):
        mapping = LabelMapping({"pour": 0, "stir": 1})
        path = tmp_path / "gt.txt"
        path.write_text("pour\npour\nstir\n")
        np.testing.assert_array_equal(read_labels(path, mapping), [0, 0, 1])

    def test_blank_lines_skipped(self, tmp_path):
        mapping = LabelMapping({"pour": 0})
        path = tmp_path / "gt.txt"
        path.write_text("pour\n\npour\n")
        np.testing.assert_array_equal(read_labels(path, mapping), [0, 0])

    def test_unknown_name_names_file_and_line(self, tmp_path):
        mapping = LabelMapping({"stir": 0})
        path = tmp_path / "gt.txt"
        path.write_text("stir\npour\n")
        with pytest.raises(UnknownLabelError, match=r"gt.txt:2: unknown action name 'pour'"):
            read_labels(path, mapping)


class TestRelabelBackgroundEdges:
    def test_leading_and_trailing_runs_move(self):
        labels = [0, 0, 1, 2, 0, 3, 0, 0]
        got = relabel_background_edges(labels, background_id=0, start_id=4, end_id=5)
        np.testing.assert_array_equal(got, [4, 4, 1, 2, 0, 3, 5, 5])

    def test_interior_background_kept(self):
        got = relabel_background_edges([1, 0, 1], 0, 2, 3)
        np.testing.assert_array_equal(got, [1, 0, 1])

    def test_all_background_becomes_start(self):
        got = relabel_background_edges([0, 0, 0], 0, 7, 8)
        np.testing.assert_array_equal(got, [7, 7, 7])

    def test_input_not_mutated(self):
        labels = np.array([0, 1, 0])
        relabel_background_edges(labels, 0, 5, 6)
        np.testing.assert_array_equal(labels, [0, 1, 0])

    def test_matches_a_frame_by_frame_walk(self):
        rng = np.random.default_rng(12)
        for length in [0, 1, 2, 3, 5, 8, 13] * 20:
            labels = rng.integers(0, 3, size=length) * rng.integers(0, 2, size=length)
            np.testing.assert_array_equal(
                relabel_background_edges(labels, 0, 3, 4),
                oracles.relabel_edges_by_walking(labels, 0, 3, 4),
            )


class TestCatalog:
    def toy_catalog(self):
        mapping = LabelMapping({"background": 0, "cut": 1})
        video = in_memory(np.zeros((4, 2)), video_id="v0")
        video.labels = np.array([0, 0, 1, 0])
        return DatasetCatalog(activity="toy", mapping=mapping, videos=[video])

    def test_properties(self):
        catalog = self.toy_catalog()
        assert catalog.num_actions == 2
        assert catalog.dim == 2
        assert catalog.total_frames == 4

    def test_video_labels_in_memory(self):
        catalog = self.toy_catalog()
        np.testing.assert_array_equal(
            catalog.video_labels(catalog.videos[0]), [0, 0, 1, 0]
        )

    def test_video_labels_applies_background_split(self):
        catalog = self.toy_catalog()
        catalog.mapping.add("background_start")  # id 2
        catalog.mapping.add("background_end")  # id 3
        catalog.background_split = (0, 2, 3)
        np.testing.assert_array_equal(
            catalog.video_labels(catalog.videos[0]), [2, 2, 1, 3]
        )

    def test_video_labels_length_mismatch_rejected(self):
        catalog = self.toy_catalog()
        catalog.videos[0].labels = np.array([0, 1])
        with pytest.raises(CatalogError, match="v0: 2 labels for 4 frames"):
            catalog.video_labels(catalog.videos[0])

    def test_video_without_labels_rejected(self):
        catalog = self.toy_catalog()
        catalog.videos[0].labels = None
        with pytest.raises(CatalogError, match="v0 has no ground-truth labels"):
            catalog.video_labels(catalog.videos[0])


class TestLoadCatalog:
    def write_toy_dataset(self, root):
        base = root / "cooking"
        (base / "features").mkdir(parents=True)
        write_features(
            in_memory([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            base / "features" / "v0.totf",
        )
        write_features(in_memory([[0.0, 0.0]]), base / "features" / "v1.totf")
        (base / "mapping.txt").write_text("0 background\n1 cut\n")
        (base / "groundTruth").mkdir()
        (base / "groundTruth" / "v0.txt").write_text("background\ncut\nbackground\n")
        return base

    def test_scans_videos_lazily(self, tmp_path):
        self.write_toy_dataset(tmp_path)
        catalog = load_catalog(tmp_path, "cooking")
        assert [v.video_id for v in catalog.videos] == ["v0", "v1"]
        assert [v.num_frames for v in catalog.videos] == [3, 1]
        assert all(v.array is None for v in catalog.videos)
        assert catalog.videos[0].label_path is not None
        assert catalog.videos[1].label_path is None
        np.testing.assert_array_equal(
            catalog.video_labels(catalog.videos[0]), [0, 1, 0]
        )

    def test_split_background_extends_mapping(self, tmp_path):
        self.write_toy_dataset(tmp_path)
        catalog = load_catalog(tmp_path, "cooking", split_background="background")
        assert catalog.mapping.name_to_id["background_start"] == 2
        assert catalog.mapping.name_to_id["background_end"] == 3
        assert catalog.background_split == (0, 2, 3)
        np.testing.assert_array_equal(
            catalog.video_labels(catalog.videos[0]), [2, 1, 3]
        )

    def test_unknown_background_name_rejected(self, tmp_path):
        self.write_toy_dataset(tmp_path)
        with pytest.raises(CatalogError, match="'silence' not in"):
            load_catalog(tmp_path, "cooking", split_background="silence")

    def test_missing_features_dir_rejected(self, tmp_path):
        (tmp_path / "empty_activity").mkdir()
        with pytest.raises(CatalogError, match="no features/ directory"):
            load_catalog(tmp_path, "empty_activity")

    def test_missing_mapping_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        (base / "mapping.txt").unlink()
        with pytest.raises(CatalogError, match="no mapping.txt"):
            load_catalog(tmp_path, "cooking")

    def test_no_feature_files_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        for path in (base / "features").glob("*.totf"):
            path.unlink()
        with pytest.raises(CatalogError, match="no .totf feature files"):
            load_catalog(tmp_path, "cooking")

    def test_mixed_dims_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        write_features(in_memory(np.zeros((2, 5))), base / "features" / "v2.totf")
        with pytest.raises(CatalogError, match=r"dimensions differ.*\[2, 5\]"):
            load_catalog(tmp_path, "cooking")


class TestWriteCatalogRoundTrip:
    def test_synthetic_round_trip(self, tmp_path):
        spec = SyntheticSpec(num_videos=3, num_actions=3, dim=4, mean_segment_len=5)
        catalog = generate_synthetic(spec)
        write_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path, "synthetic")
        assert [v.video_id for v in loaded.videos] == [
            v.video_id for v in catalog.videos
        ]
        assert loaded.mapping.name_to_id == catalog.mapping.name_to_id
        for orig, back in zip(catalog.videos, loaded.videos):
            assert back.num_frames == orig.num_frames
            # Written as float32, so compare at float32 resolution.
            np.testing.assert_array_equal(
                back.load_features(),
                orig.load_features().astype(np.float32).astype(np.float64),
            )
            np.testing.assert_array_equal(loaded.video_labels(back), orig.labels)


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(num_videos=4, num_actions=3, dim=5, seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.mapping.name_to_id == b.mapping.name_to_id
        np.testing.assert_array_equal(a.true_means, b.true_means)
        for va, vb in zip(a.videos, b.videos):
            assert va.video_id == vb.video_id
            np.testing.assert_array_equal(va.array, vb.array)
            np.testing.assert_array_equal(va.labels, vb.labels)

    def test_mean_separation_is_exact(self):
        spec = SyntheticSpec(num_actions=5, dim=16, cluster_separation=10.0)
        means = generate_synthetic(spec).true_means
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(
                    10.0, rel=1e-12
                )

    def test_canonical_order_without_permutation(self):
        catalog = generate_synthetic(
            SyntheticSpec(num_videos=5, num_actions=4, dim=6, seed=3)
        )
        for video in catalog.videos:
            labels = video.labels
            assert np.all(np.diff(labels) >= 0)
            np.testing.assert_array_equal(np.unique(labels), np.arange(4))

    def test_segment_lengths_respect_jitter(self):
        spec = SyntheticSpec(
            num_videos=10, num_actions=3, dim=4, mean_segment_len=40, len_jitter=0.25
        )
        catalog = generate_synthetic(spec)
        for video in catalog.videos:
            changes = np.flatnonzero(np.diff(video.labels)) + 1
            bounds = np.concatenate([[0], changes, [video.num_frames]])
            lengths = np.diff(bounds)
            assert lengths.min() >= 30
            assert lengths.max() <= 50

    def test_permutation_keeps_every_action_once(self):
        catalog = generate_synthetic(
            SyntheticSpec(num_videos=8, num_actions=4, dim=5, permute_prob=1.0, seed=7)
        )
        for video in catalog.videos:
            segment_labels = [video.labels[0]]
            for cur in video.labels[1:]:
                if cur != segment_labels[-1]:
                    segment_labels.append(cur)
            assert sorted(segment_labels) == [0, 1, 2, 3]

    def test_dropping_leaves_nonempty_videos(self):
        catalog = generate_synthetic(
            SyntheticSpec(num_videos=10, num_actions=4, dim=5, drop_prob=0.9, seed=9)
        )
        for video in catalog.videos:
            assert video.num_frames >= 2
            assert set(np.unique(video.labels)) <= set(range(4))

    def test_separated_clusters_are_nearest_mean_classifiable(self):
        catalog = generate_synthetic(
            SyntheticSpec(cluster_separation=10.0, noise_sigma=1.0, seed=11)
        )
        assert oracles.nearest_mean_accuracy(catalog) >= 0.99

    def test_video_ids_and_mapping_names(self):
        catalog = generate_synthetic(SyntheticSpec(num_videos=2, num_actions=2, dim=2))
        assert catalog.videos[0].video_id == "video_000"
        assert catalog.videos[1].video_id == "video_001"
        assert catalog.mapping.name_to_id == {"action_0": 0, "action_1": 1}
        assert catalog.activity == "synthetic"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_videos": 0},
            {"num_actions": 1},
            {"num_actions": 5, "dim": 4},
            {"mean_segment_len": 1},
            {"len_jitter": 1.0},
            {"cluster_separation": 0.0},
            {"noise_sigma": -1.0},
            {"permute_prob": 1.5},
            {"drop_prob": 1.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)
