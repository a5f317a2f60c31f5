"""Tests for ordered anchor sampling and batch construction."""

import copy

import numpy as np
import pytest

from totseg import dataio
from totseg.dataio import FeatureSequence, write_features
from totseg.errors import DataError
from totseg.sampler import build_batch, sample_ordered, sample_positive


def make_video(video_id, num_frames, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSequence(
        video_id=video_id,
        num_frames=num_frames,
        dim=dim,
        array=rng.normal(size=(num_frames, dim)),
    )


class TestSampleOrdered:
    def test_full_video_is_identity(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_ordered(7, 7, rng), np.arange(7))

    def test_draws_stay_inside_their_bins(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            picks = sample_ordered(100, 4, rng)
            for i, pick in enumerate(picks):
                assert 25 * i <= pick < 25 * (i + 1)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            num_frames = int(rng.integers(5, 200))
            count = int(rng.integers(1, num_frames + 1))
            picks = sample_ordered(num_frames, count, rng)
            assert picks.shape == (count,)
            assert np.all(np.diff(picks) > 0)
            assert picks[0] >= 0
            assert picks[-1] < num_frames

    def test_uniform_within_a_bin(self):
        # First bin of 100/4 covers frames 0..24; 6000 draws put about 240
        # on each frame. Chi-square with 24 degrees of freedom stays far
        # below 60 unless the draw is biased.
        rng = np.random.default_rng(3)
        counts = np.zeros(25)
        for _ in range(6000):
            counts[sample_ordered(100, 4, rng)[0]] += 1
        expected = 6000 / 25
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < 60.0

    def test_uneven_bins_still_partition(self):
        # 10 frames over 3 bins: edges at 0, 3, 6, 10.
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = sample_ordered(10, 3, rng)
            assert 0 <= a < 3
            assert 3 <= b < 6
            assert 6 <= c < 10

    @pytest.mark.parametrize("count", [0, 8, -1])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ValueError, match="ordered frames"):
            sample_ordered(7, count, np.random.default_rng(0))


class TestSamplePositive:
    def test_clamped_at_video_start(self):
        rng = np.random.default_rng(5)
        draws = {sample_positive(0, 10, 10, rng) for _ in range(500)}
        assert min(draws) == 0
        assert max(draws) == 9

    def test_clamped_window_interior(self):
        rng = np.random.default_rng(6)
        draws = [sample_positive(50, 30, 81, rng) for _ in range(3000)]
        assert min(draws) == 20
        assert max(draws) == 80

    def test_uniform_over_the_window(self):
        rng = np.random.default_rng(7)
        counts = np.zeros(5)
        for _ in range(5000):
            counts[sample_positive(5, 2, 100, rng) - 3] += 1
        expected = 5000 / 5
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < 30.0

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="positive window"):
            sample_positive(0, 0, 10, np.random.default_rng(0))

    def test_anchor_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="anchor 10 outside"):
            sample_positive(10, 5, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("window", [10**20, 2**63 - 1])
    def test_window_past_the_video_draws_as_the_whole_video(self, window):
        # Both windows cover every frame, so the draws are those of
        # window=num_frames, and int64 anchor arithmetic never sees them.
        anchors = sample_ordered(50, 10, np.random.default_rng(1))
        huge, whole = (np.random.default_rng(2) for _ in range(2))
        np.testing.assert_array_equal(
            sample_positive(anchors, window, 50, huge),
            sample_positive(anchors, 50, 50, whole),
        )
        assert sample_positive(3, window, 50, huge) == sample_positive(3, 50, 50, whole)


class TestSamplePositiveArray:
    def test_array_draw_equals_per_anchor_draws(self):
        for seed in range(20):
            anchors = sample_ordered(500, 64, np.random.default_rng(seed + 100))
            vector_rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
            drawn = sample_positive(anchors, 30, 500, vector_rng)
            looped = [sample_positive(int(a), 30, 500, loop_rng) for a in anchors]
            assert drawn.dtype == np.int64
            np.testing.assert_array_equal(drawn, looped)
            assert vector_rng.integers(1 << 62) == loop_rng.integers(1 << 62)

    def test_first_out_of_range_anchor_is_named(self):
        with pytest.raises(ValueError, match="anchor 12 outside"):
            sample_positive(np.array([3, 12, -1]), 5, 10, np.random.default_rng(0))


def replay(videos, videos_per_batch, batch_size, rng, window=30):
    """(video, anchors, positives) of each block ``build_batch`` draws with
    ``rng``: its generator calls replayed in its order, block by block."""
    length = batch_size // videos_per_batch
    blocks = []
    for idx in rng.choice(len(videos), size=videos_per_batch, replace=False):
        video = videos[int(idx)]
        anchors = sample_ordered(video.num_frames, length, rng)
        positives = sample_positive(anchors, window, video.num_frames, rng)
        blocks.append((video, anchors, positives))
    return blocks


def replayed_rows(blocks):
    """The rows of ``blocks`` laid out as ``Batch.rows``: every block's
    anchors in order, then every block's positives."""
    anchors = [video.array[frames] for video, frames, _ in blocks]
    positives = [video.array[frames] for video, _, frames in blocks]
    return np.concatenate(anchors + positives)


class TestBuildBatch:
    def pool(self, lengths, dim=3):
        return [
            make_video(f"v{i}", length, dim=dim, seed=i)
            for i, length in enumerate(lengths)
        ]

    def test_two_blocks_cover_the_batch(self):
        videos = self.pool([300, 280, 400])
        batch = build_batch(videos, 2, 512, np.random.default_rng(8))
        assert batch.rows.shape == (1024, 3)
        assert batch.batch_size == 512
        assert not batch.rows.flags.writeable
        # The positives are a view of the rows' bottom half.
        positives = batch.positive_features
        assert positives.shape == (512, 3)
        assert np.shares_memory(positives, batch.rows)
        np.testing.assert_array_equal(positives, batch.rows[512:])
        blocks = replay(videos, 2, 512, np.random.default_rng(8))
        assert blocks[0][0] is not blocks[1][0]
        np.testing.assert_array_equal(batch.rows, replayed_rows(blocks))

    def test_rows_match_source_frames(self):
        videos = self.pool([40, 50, 60])
        batch = build_batch(videos, 2, 32, np.random.default_rng(9), window=5)
        blocks = replay(videos, 2, 32, np.random.default_rng(9), window=5)
        np.testing.assert_array_equal(batch.rows, replayed_rows(blocks))

    def test_positions_increase_within_every_block(self):
        # Each batch's anchors are its blocks' sample_ordered draws, so they
        # come out in increasing frame order within every block.
        videos = self.pool([64, 70, 90, 128])
        rng = np.random.default_rng(10)
        for _ in range(100):
            blocks = replay(videos, 2, 64, copy.deepcopy(rng))
            batch = build_batch(videos, 2, 64, rng)
            np.testing.assert_array_equal(batch.rows, replayed_rows(blocks))
            for _, anchors, _ in blocks:
                assert np.all(np.diff(anchors) > 0)

    def test_positives_stay_within_the_window(self):
        videos = self.pool([100, 120])
        rng = np.random.default_rng(11)
        for _ in range(20):
            blocks = replay(videos, 2, 40, copy.deepcopy(rng), window=7)
            batch = build_batch(videos, 2, 40, rng, window=7)
            np.testing.assert_array_equal(batch.rows, replayed_rows(blocks))
            for video, anchors, positives in blocks:
                assert np.all(np.abs(positives - anchors) <= 7)
                assert positives.min() >= 0
                assert positives.max() < video.num_frames

    def test_single_video_batch(self):
        # A block as long as its video holds every frame, in order.
        videos = self.pool([128])
        batch = build_batch(videos, 1, 128, np.random.default_rng(12))
        np.testing.assert_array_equal(batch.rows[:128], videos[0].array)
        assert batch.positive_features.shape == (128, 3)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_anchors_alone_equal_the_top_half_and_draw_the_same(self, tmp_path, on_disk):
        # A B-row out reads no positives, but draws them: the same anchors as
        # a 2B-row gather, and the generator left in the same state.
        videos = self.pool([90, 120, 150], dim=4)
        if on_disk:
            for video in videos:
                video.path = tmp_path / f"{video.video_id}.totf"
                write_features(video.array, video.path)
                video.array = None
        both, alone = np.random.default_rng(16), np.random.default_rng(16)
        with dataio.FeatureMaps(videos) as maps:
            for _ in range(5):
                full = build_batch(videos, 3, 60, both, 6, np.empty((120, 4)), maps)
                half = build_batch(videos, 3, 60, alone, 6, np.empty((60, 4)), maps)
                assert half.rows.shape == (60, 4)
                assert half.positive_features.shape == (0, 4)
                np.testing.assert_array_equal(half.rows, full.rows[:60])
        assert alone.bit_generator.state == both.bit_generator.state

    def test_non_finite_row_names_the_file_and_frame(self, tmp_path):
        values = np.zeros((16, 3))
        values[[7, 12], 1] = [np.inf, np.nan]
        path = tmp_path / "bad.totf"
        write_features(values, path)
        videos = [FeatureSequence("bad", 16, 3, path=path)]
        # A 16-row block of a 16-frame video reads every frame.
        message = r"bad\.totf: non-finite feature value in frame 7$"
        with pytest.raises(DataError, match=message):
            build_batch(videos, 1, 16, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        videos = self.pool([80, 90, 100])
        a = build_batch(videos, 2, 48, np.random.default_rng(13))
        b = build_batch(videos, 2, 48, np.random.default_rng(13))
        np.testing.assert_array_equal(a.rows, b.rows)
        blocks = replay(videos, 2, 48, np.random.default_rng(13))
        np.testing.assert_array_equal(a.rows, replayed_rows(blocks))

    def test_disk_pool_reads_each_block_once_and_matches_memory(
        self, tmp_path, monkeypatch
    ):
        # Features are float32 on disk, so round the in-memory pool to it.
        in_memory = []
        for video in self.pool([90, 120, 150], dim=4):
            video.array = video.array.astype(np.float32).astype(np.float64)
            in_memory.append(video)
        on_disk = []
        for video in in_memory:
            path = tmp_path / f"{video.video_id}.totf"
            write_features(video.array, path)
            on_disk.append(
                FeatureSequence(video.video_id, video.num_frames, video.dim, path=path)
            )
        opens = []
        map_payload = dataio._map_payload

        def counted(path, *args):
            opens.append(path.stem)
            return map_payload(path, *args)

        monkeypatch.setattr(dataio, "_map_payload", counted)
        want = build_batch(in_memory, 3, 60, np.random.default_rng(14), window=6)
        assert opens == []
        got = build_batch(on_disk, 3, 60, np.random.default_rng(14), window=6)
        blocks = replay(in_memory, 3, 60, np.random.default_rng(14), window=6)
        assert opens == [video.video_id for video, _, _ in blocks]
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.rows, replayed_rows(blocks))

    def test_each_block_is_one_load_feature_rows_call_into_the_batch(self, monkeypatch):
        # Replaced on the class, as perfbench's tracer wraps it.
        calls = []
        load = FeatureSequence.load_feature_rows

        def counted(self, rows, out=None, maps=None):
            calls.append((self, np.shape(rows), out, maps))
            return load(self, rows, out, maps)

        monkeypatch.setattr(FeatureSequence, "load_feature_rows", counted)
        videos = self.pool([90, 120, 150], dim=4)
        out = np.empty((120, 4))
        with dataio.FeatureMaps() as maps:
            batch = build_batch(videos, 3, 60, np.random.default_rng(15), 6, out, maps)
        blocks = out.reshape(2, 3, 20, 4)
        assert len(calls) == 3
        for block, (video, shape, into, through) in enumerate(calls):
            assert shape == (2, 20)
            assert through is maps
            # Block i's anchors and positives: rows i*20.. of each half.
            assert into.__array_interface__ == blocks[:, block].__array_interface__
            assert np.shares_memory(into, batch.rows)
        replayed = replay(videos, 3, 60, np.random.default_rng(15), window=6)
        assert [video for video, *_ in calls] == [video for video, _, _ in replayed]
        np.testing.assert_array_equal(batch.rows, replayed_rows(replayed))

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="positive multiple"):
            build_batch(self.pool([100, 100, 100]), 3, 10, np.random.default_rng(0))

    def test_nonpositive_videos_per_batch_rejected(self):
        with pytest.raises(ValueError, match="videos_per_batch"):
            build_batch(self.pool([100]), 0, 10, np.random.default_rng(0))

    def test_short_video_in_pool_rejected(self):
        with pytest.raises(ValueError, match=r"shorter than block size 16: \['v1'\]"):
            build_batch(self.pool([100, 7]), 2, 32, np.random.default_rng(0))

    def test_pool_smaller_than_videos_per_batch_rejected(self):
        with pytest.raises(ValueError, match="only 1 available"):
            build_batch(self.pool([100]), 2, 32, np.random.default_rng(0))
