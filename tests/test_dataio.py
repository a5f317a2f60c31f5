"""Tests for feature files, label handling, catalogs, and synthetic data."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totseg import dataio
from totseg.dataio import (
    FEATURE_MAGIC,
    DatasetCatalog,
    FeatureSequence,
    LabelMapping,
    SyntheticSpec,
    generate_synthetic,
    load_catalog,
    read_feature_header,
    read_labels,
    read_predictions,
    write_catalog,
    write_features,
)
from totseg.errors import DataError

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
        write_features(self.SAMPLE, path)
        assert read_feature_header(path) == (3, 2)
        features = FeatureSequence("a", 3, 2, path=path).load_features()
        np.testing.assert_array_equal(features, self.SAMPLE)
        assert features.dtype == np.float64

    def test_file_size_is_header_plus_payload(self, tmp_path):
        path = tmp_path / "big.totf"
        rng = np.random.default_rng(0)
        write_features(rng.normal(size=(1000, 64)), path)
        assert path.stat().st_size == 14 + 1000 * 64 * 4

    def test_header_alone_reports_shape(self, tmp_path):
        path = tmp_path / "b.totf"
        write_features(np.zeros((7, 5)), path)
        assert read_feature_header(path) == (7, 5)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.totf"
        write_features(self.SAMPLE, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="bad.totf"):
            read_feature_header(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v9.totf"
        write_features(self.SAMPLE, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version 9"):
            read_feature_header(path)

    def test_rejects_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.totf"
        path.write_bytes(FEATURE_MAGIC + b"\x01")
        with pytest.raises(DataError, match="shorter than the header"):
            read_feature_header(path)

    def test_write_creates_parent_directories(self, tmp_path):
        path = tmp_path / "x" / "y" / "c.totf"
        write_features(self.SAMPLE, path)
        assert path.exists()


class TestLoadFeatureRows:
    def disk_backed(self, tmp_path, values):
        path = tmp_path / "seq.totf"
        write_features(values, path)
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
        # Consecutive frames read as a slice of the map, a lone frame too.
        for rows in (np.arange(3, 11), np.array([19])):
            np.testing.assert_array_equal(seq.load_feature_rows(rows), values[rows])

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
        write_features(np.ones((5, 3)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: 14 + 4 * 3 * 4])  # keep header + 4 of 5 rows
        seq = FeatureSequence(video_id="short", num_frames=5, dim=3, path=path)
        np.testing.assert_array_equal(seq.load_feature_rows([3]), np.ones((1, 3)))
        with pytest.raises(DataError, match="row 4 extends past end"):
            seq.load_feature_rows([4])
        with pytest.raises(DataError, match="row 4 extends past end"):
            seq.load_features()
        with pytest.raises(DataError, match="row 4 extends past end"):
            seq.load_feature_rows(np.arange(2, 5))

    @pytest.mark.parametrize("on_disk", [True, False], ids=["mapped", "in_memory"])
    def test_non_finite_row_names_the_source_and_lowest_frame(self, tmp_path, on_disk):
        values = np.zeros((16, 3))
        values[[12, 7], [1, 2]] = [np.nan, -np.inf]
        seq = self.disk_backed(tmp_path, values) if on_disk else in_memory(values, "seq")
        source = r"/seq\.totf" if on_disk else "^video seq"
        np.testing.assert_array_equal(seq.load_feature_rows([0, 15, 3]), np.zeros((3, 3)))
        for rows, frame in (([12, 0, 7], 7), ([15, 12], 12), (np.arange(5, 14), 7)):
            message = f"{source}: non-finite feature value in frame {frame}$"
            with pytest.raises(DataError, match=message):
                seq.load_feature_rows(rows)


class TestFeatureMaps:
    @staticmethod
    def videos(tmp_path, count, frames=12, dim=3):
        rng = np.random.default_rng(2)
        videos = []
        for index in range(count):
            values = rng.normal(size=(frames, dim)).astype(np.float32).astype(np.float64)
            path = tmp_path / f"v{index}.totf"
            write_features(values, path)
            videos.append((FeatureSequence(f"v{index}", frames, dim, path=path), values))
        return videos

    def test_reads_cast_into_out_and_match_the_file(self, tmp_path):
        [(video, values)] = self.videos(tmp_path, 1)
        frames = np.array([[0, 4, 11], [1, 4, 10]])
        out = np.empty((2, 3, 3))
        with dataio.FeatureMaps([video]) as maps:
            maps.read(video, frames, out)
            maps.read(video, frames, out)  # read again after its pages were released
        np.testing.assert_array_equal(out, values[frames])

    def test_a_gather_copies_a_few_frames_at_a_time(self, tmp_path, monkeypatch):
        # Two frames of each part per step: 2 parts x 2 frames x 3 dims x 4 bytes.
        monkeypatch.setattr(dataio, "_GATHER_BYTES", 48)
        [(video, values)] = self.videos(tmp_path, 1)
        frames = np.array([[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]])
        out = np.empty((2, 5, 3))
        with dataio.FeatureMaps() as maps:
            maps.read(video, frames, out)
        np.testing.assert_array_equal(out, values[frames])

    def test_least_recently_read_map_closes_past_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_MAX_OPEN_MAPS", 2)
        opens = []
        map_payload = dataio._map_payload

        def counted(path, *args):
            opens.append(path.stem)
            return map_payload(path, *args)

        monkeypatch.setattr(dataio, "_map_payload", counted)
        videos = self.videos(tmp_path, 3)
        out = np.empty((1, 3))
        with dataio.FeatureMaps([video for video, _ in videos]) as maps:
            assert opens == ["v0", "v1", "v2"]  # v0 closed when v2 opened
            for index in (1, 0, 0, 2, 1):
                video, values = videos[index]
                maps.read(video, np.array([5]), out)
                np.testing.assert_array_equal(out, values[[5]])
        # v0 maps again and closes v2; v2 maps again and closes v1, which
        # then maps again and closes v0.
        assert opens == ["v0", "v1", "v2", "v0", "v2", "v1"]

    def test_a_file_shorter_than_its_header_fails_when_mapped(self, tmp_path):
        [(video, _)] = self.videos(tmp_path, 1, frames=5)
        video.path.write_bytes(video.path.read_bytes()[: 14 + 4 * 3 * 3])
        with pytest.raises(DataError, match=r"v0\.totf: row 3 extends past end of file$"):
            dataio.FeatureMaps([video])
        # load_feature_rows still reads the rows that are present.
        assert video.load_feature_rows([2]).shape == (1, 3)


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
        with pytest.raises(DataError, match="one id to several names"):
            LabelMapping.from_file(path)

    def test_ids_other_than_zero_to_k_rejected(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("0 pour\n1 stir\n5 serve\n")
        with pytest.raises(DataError, match=r"gap.txt: action ids must be 0..2, got \[0, 1, 5\]"):
            LabelMapping.from_file(path)

    def test_name_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("0 pour\n1 stir\n2 pour\n")
        with pytest.raises(DataError, match="twice.txt:3: action 'pour' listed twice"):
            LabelMapping.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 pour\nstir\n")
        with pytest.raises(DataError, match="bad.txt:2"):
            LabelMapping.from_file(path)

    def test_empty_mapping_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DataError, match="empty label mapping"):
            LabelMapping.from_file(path)


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
        with pytest.raises(DataError, match=r"gt.txt:2: unknown action name 'pour'"):
            read_labels(path, mapping)


# Lines for the run-length readers' property tests: mostly valid, with a
# few that make a file fail. str.splitlines splits at every ground-truth
# separator below; bytes.splitlines only at "\n", "\r\n" and "\r".
TRUTH_MAPPING = {"pour": 0, "stir": 1, "take cup": 2}
TRUTH_LINES = ["pour", "stir", "take cup", "  pour", "stir\t", "\u3000pour\u00a0", "", "   "]
BAD_TRUTH_LINES = ["fry", "Pour", "take  cup"]
TRUTH_SEPARATORS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
PREDICTION_LINES = [
    b"0", b"3", b" 7 ", b"\t12", b"007", b"+2", b"1_0", b"\x0b5\x0c", b"", b"  ",
    b"9223372036854775807", b"-0",
]
BAD_PREDICTION_LINES = [
    b"-1", b"9223372036854775808", b"-9223372036854775809", b"x", b"1.0", b"\xd9\xa1",
    b"\xff", b"\x1c1", b"\x85",
]
PREDICTION_SEPARATORS = [b"\n", b"\r\n", b"\r"]


@st.composite
def line_files(draw, lines, bad_lines, separators):
    """File contents as runs of equal lines; one run in ten holds a bad line,
    and the final separator may be missing (an empty file has none)."""
    pieces = []
    for _ in range(draw(st.integers(0, 8))):
        pool = bad_lines if draw(st.integers(0, 9)) == 0 else lines
        line = draw(st.sampled_from(pool))
        for _ in range(draw(st.integers(1, 6))):
            pieces += [line, draw(st.sampled_from(separators))]
    if pieces and draw(st.booleans()):
        pieces.pop()
    return lines[0][:0].join(pieces)


def outcome(read, *args):
    """(dtype, ids) of a successful read, or the message it failed with."""
    try:
        ids = read(*args)
    except (DataError, ValueError) as err:
        return str(err)
    return ids.dtype, ids.tolist()


class TestRunLengthReaders:
    """read_labels and read_predictions against the per-line parsers they replaced."""

    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(line_files(TRUTH_LINES, BAD_TRUTH_LINES, TRUTH_SEPARATORS))
    def test_ground_truth_matches_the_per_line_parser(self, tmp_path, text):
        path = tmp_path / "gt.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_labels, path, LabelMapping(dict(TRUTH_MAPPING))) == outcome(
            oracles.read_labels_line_by_line, path, TRUTH_MAPPING
        )

    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(line_files(PREDICTION_LINES, BAD_PREDICTION_LINES, PREDICTION_SEPARATORS))
    def test_predictions_match_the_per_line_parser(self, tmp_path, data):
        path = tmp_path / "pred.txt"
        path.write_bytes(data)
        assert outcome(read_predictions, path) == outcome(
            oracles.read_predictions_line_by_line, path
        )

    def test_run_longer_than_the_cap(self, tmp_path):
        long = 2 * dataio._RUN_CAP + 5
        mapping = LabelMapping({"pour": 0, "stir": 1})
        path = tmp_path / "gt.txt"
        path.write_text("pour\n" * long + "stir\n" * 3)
        np.testing.assert_array_equal(read_labels(path, mapping), [0] * long + [1] * 3)
        path.write_text("stir\n" + "pour\n" * long + "fry\n")
        with pytest.raises(DataError, match=rf"gt.txt:{long + 2}: unknown action name 'fry'"):
            read_labels(path, mapping)
        path.write_bytes(b"4\n" * long + b"x\n")
        with pytest.raises(DataError, match="integer cluster ids"):
            read_predictions(path)
        path.write_bytes(b"4\n" * long + b"\n" + b"2\n" * long)
        np.testing.assert_array_equal(read_predictions(path), [4] * long + [2] * long)


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

    def test_video_labels_length_mismatch_rejected(self):
        catalog = self.toy_catalog()
        catalog.videos[0].labels = np.array([0, 1])
        with pytest.raises(DataError, match="v0: 2 labels for 4 frames"):
            catalog.video_labels(catalog.videos[0])

    def test_video_without_labels_rejected(self):
        catalog = self.toy_catalog()
        catalog.videos[0].labels = None
        with pytest.raises(DataError, match="v0 has no ground-truth labels"):
            catalog.video_labels(catalog.videos[0])


class TestLoadCatalog:
    def write_toy_dataset(self, root):
        base = root / "cooking"
        (base / "features").mkdir(parents=True)
        write_features([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], base / "features" / "v0.totf")
        write_features([[0.0, 0.0]], base / "features" / "v1.totf")
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

    def test_missing_features_dir_rejected(self, tmp_path):
        (tmp_path / "empty_activity").mkdir()
        with pytest.raises(DataError, match="no features/ directory"):
            load_catalog(tmp_path, "empty_activity")

    def test_missing_mapping_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        (base / "mapping.txt").unlink()
        with pytest.raises(DataError, match="no mapping.txt"):
            load_catalog(tmp_path, "cooking")

    def test_no_feature_files_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        for path in (base / "features").glob("*.totf"):
            path.unlink()
        with pytest.raises(DataError, match="no .totf feature files"):
            load_catalog(tmp_path, "cooking")

    def test_mixed_dims_rejected(self, tmp_path):
        base = self.write_toy_dataset(tmp_path)
        write_features(np.zeros((2, 5)), base / "features" / "v2.totf")
        with pytest.raises(DataError, match=r"dimensions differ.*\[2, 5\]"):
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


    @pytest.mark.parametrize(
        "labels",
        [
            [0, 0, 0, 1, 1, 2],
            [2, 0, 2, 2, 1, 0, 0],
            [1],
            [2] * 9000 + [0] * 3,
            [],
        ],
        ids=["runs", "single_frame_runs", "one_frame", "long_run", "empty"],
    )
    def test_ground_truth_bytes_match_the_per_frame_join(self, tmp_path, labels):
        mapping = LabelMapping({"pour": 0, "stir": 1, "serve": 2})
        video = FeatureSequence(
            video_id="v",
            num_frames=len(labels),
            dim=2,
            array=np.zeros((len(labels), 2)),
            labels=np.asarray(labels, dtype=np.int64),
        )
        base = write_catalog(DatasetCatalog("cooking", mapping, [video]), tmp_path)
        names = [mapping.id_to_name[int(i)] for i in labels]
        written = (base / "groundTruth" / "v.txt").read_bytes()
        assert written == ("\n".join(names) + "\n").encode()


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
