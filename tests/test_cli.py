"""End-to-end tests of the command-line pipeline."""

import shutil
import struct

import numpy as np
import pytest

from totseg import cli, config
from totseg.dataio import SyntheticSpec, write_features
from totseg.trainer import TrainConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_args(out, **overrides):
    args = {
        "videos": 4,
        "k": 3,
        "dim": 6,
        "segment-len": 20,
        "seed": 5,
    }
    args.update(overrides)
    argv = ["synth", out]
    for key, value in args.items():
        argv += [f"--{key}", value]
    return argv


def train_args(data, out, **overrides):
    args = {
        "iterations": 30,
        "batch": 32,
        "videos-per-batch": 2,
        "freeze-iters": 5,
        "embed-dim": 6,
        "lambda": 5,
        "sigma": 1.0,
        "out": out,
    }
    args.update(overrides)
    argv = ["train", data]
    for key, value in args.items():
        argv += [f"--{key}", value]
    return argv


def tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def checkpoint_header_case(name, offset, fmt, value):
    """A corrupt() case of TestExitCodes that overwrites one checkpoint header
    field (offsets as in docs/file-formats.md)."""

    def corrupt(data, runs, tmp_path):
        path = runs / "synthetic" / cli.CHECKPOINT_NAME
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(raw)
        return ["segment", data, "--checkpoints", runs], f"{path}: checkpoint"

    corrupt.__name__ = name
    return corrupt


def header_field(fmt, offset, change):
    """A feature-file corruption that rewrites one header field (offsets as
    in docs/file-formats.md) with ``change`` of its value."""

    def corrupt(raw):
        raw = bytearray(raw)
        (value,) = struct.unpack_from(fmt, raw, offset)
        struct.pack_into(fmt, raw, offset, change(value))
        return bytes(raw)

    return corrupt


# Byte-level corruptions of one 6-column feature file: each maps the file's
# bytes to what is written back.
FEATURE_CORRUPTIONS = {
    "empty": lambda raw: b"",
    "13_bytes": lambda raw: raw[:13],
    "header_only": lambda raw: raw[:14],
    "cut_mid_row": lambda raw: raw[: 14 + 4 * 6 * 3 + 10],
    "cut_at_a_row": lambda raw: raw[: 14 + 4 * 6 * 3],
    "7_trailing_bytes": lambda raw: raw + bytes(7),
    "rows_plus_1": header_field("<I", 6, lambda rows: rows + 1),
    "rows_minus_1": header_field("<I", 6, lambda rows: rows - 1),
    "cols_doubled": header_field("<I", 10, lambda cols: 2 * cols),
    "cols_2_31": header_field("<I", 10, lambda cols: 2**31),
    "wrong_magic": lambda raw: b"JUNK" + raw[4:],
    "version_2": header_field("<H", 4, lambda version: 2),
}


def zero_predictions(data, tmp_path):
    """Write an all-zero prediction for every video; return the eval argv."""
    pred_dir = tmp_path / "pred" / "synthetic"
    pred_dir.mkdir(parents=True)
    for truth in sorted((data / "synthetic" / "groundTruth").glob("*.txt")):
        frames = len(truth.read_text().splitlines())
        (pred_dir / truth.name).write_text("0\n" * frames)
    return ["eval", data, "--pred", tmp_path / "pred"]


class TestSynth:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        assert run(*synth_args(tmp_path / "a")) == 0
        assert run(*synth_args(tmp_path / "b")) == 0
        capsys.readouterr()
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert list(a) == list(b)
        assert all(a[k] == b[k] for k in a)

    def test_writes_a_loadable_dataset(self, tmp_path, capsys):
        assert run(*synth_args(tmp_path / "data")) == 0
        out = capsys.readouterr().out
        assert "wrote 4 videos" in out
        base = tmp_path / "data" / "synthetic"
        assert (base / "mapping.txt").is_file()
        assert len(list((base / "features").glob("*.totf"))) == 4
        assert len(list((base / "groundTruth").glob("*.txt"))) == 4

    def test_activity_flag_renames_the_directory(self, tmp_path, capsys):
        assert run(*synth_args(tmp_path / "data", **{"activity": "kitchen"})) == 0
        assert (tmp_path / "data" / "kitchen" / "features").is_dir()

    def test_invalid_spec_is_a_usage_error(self, tmp_path, capsys):
        assert run("synth", tmp_path / "data", "--k", "1") == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--len-jitter", "--noise"])
    def test_negative_zero_writes_the_zero_dataset(self, tmp_path, capsys, flag):
        # numpy's generator rejects -0.0, which the spec's range checks accept.
        assert run(*synth_args(tmp_path / "zero"), flag, "0") == 0
        assert run(*synth_args(tmp_path / "negative"), flag, "-0.0") == 0
        assert "Traceback" not in capsys.readouterr().err
        assert tree_bytes(tmp_path / "negative") == tree_bytes(tmp_path / "zero")


class TestConfigResolution:
    def test_flag_beats_default(self, tmp_path, capsys):
        assert run("synth", tmp_path / "data", "--dim", "6", "--videos", "3") == 0
        out = capsys.readouterr().out
        assert "dim = 6  (flag)" in out
        assert "videos = 3  (flag)" in out
        assert "k = 5  (default)" in out
        features = list((tmp_path / "data" / "synthetic" / "features").glob("*.totf"))
        assert len(features) == 3

    def test_bad_choice_value_rejected(self, tmp_path, capsys):
        assert run("train", tmp_path, "--mode", "kmeans") == 1
        capsys.readouterr()

    def test_registry_defaults_are_the_library_defaults(self):
        def defaults(registry):
            return {option.name: option.default for option in registry}

        assert cli._train_config(defaults(config.TRAIN_OPTIONS)) == TrainConfig()
        assert cli._synthetic_spec(defaults(config.SYNTH_OPTIONS)) == SyntheticSpec()


class TestPipeline:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        capsys.readouterr()
        return data

    @pytest.fixture()
    def trained(self, dataset, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert run(*train_args(dataset, runs)) == 0
        capsys.readouterr()
        return dataset, runs

    def test_train_writes_checkpoint_and_log(self, trained, capsys):
        _, runs = trained
        assert (runs / "synthetic" / "checkpoint.totc").is_file()
        log_lines = (runs / "synthetic" / "train.log").read_text().splitlines()
        assert log_lines[0] == "iter,L_CE,L_TC,L,row_err,col_err"
        assert len(log_lines) == 1 + 30

    @pytest.mark.parametrize("window", [10**20, 2**63 - 1])
    def test_lambda_past_every_video_trains_as_a_video_long_window(
        self, dataset, tmp_path, capsys, window
    ):
        # Synth's videos are about 60 frames, so --lambda 1000000 already
        # draws positives from the whole video.
        logs = []
        for name, value in (("huge", window), ("long", 10**6)):
            out = tmp_path / name
            assert run(*train_args(dataset, out, **{"lambda": value})) == 0
            logs.append((out / "synthetic" / "train.log").read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_segment_writes_one_monotone_labeling_per_video(
        self, trained, tmp_path, capsys
    ):
        data, runs = trained
        seg = tmp_path / "segments"
        assert (
            run("segment", data, "--checkpoints", runs, "--out", seg, "--timeline")
            == 0
        )
        capsys.readouterr()
        label_files = sorted((seg / "synthetic").glob("video_*.txt"))
        assert len(label_files) == 4
        from totseg.dataio import load_catalog

        catalog = load_catalog(data, "synthetic")
        for video, path in zip(catalog.videos, label_files):
            assert path.stem == video.video_id
            labels = [int(line) for line in path.read_text().splitlines()]
            assert len(labels) == video.num_frames
            assert all(b - a in (0, 1) for a, b in zip(labels, labels[1:]))
            assert labels[0] == 0
            assert labels[-1] == 2

            timeline = (seg / "synthetic" / f"{video.video_id}.timeline.csv")
            rows = [
                tuple(int(x) for x in line.split(","))
                for line in timeline.read_text().splitlines()
            ]
            assert rows[0][1] == 0
            assert rows[-1][2] == video.num_frames
            for (_, _, prev_end), (_, start, _) in zip(rows, rows[1:]):
                assert start == prev_end

    def test_segment_is_deterministic(self, trained, tmp_path, capsys):
        data, runs = trained
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run("segment", data, "--checkpoints", runs, "--out", out) == 0
            outs.append(tree_bytes(out))
        capsys.readouterr()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "k, tiny_video, chunk",
        [
            pytest.param(1, False, 4096, id="one_cluster"),
            pytest.param(3, True, 4096, id="video_of_k_frames"),
            # Synth writes videos of about 60 frames: several chunks of 7.
            pytest.param(3, False, 7, id="several_chunks"),
        ],
    )
    def test_label_file_holds_one_line_per_decoded_frame(
        self, tmp_path, capsys, monkeypatch, k, tiny_video, chunk
    ):
        from totseg import decode, encoder, trainer
        from totseg.dataio import load_catalog

        data, runs, seg = tmp_path / "data", tmp_path / "runs", tmp_path / "seg"
        assert run(*synth_args(data)) == 0
        # Synth writes two actions at least; an untrained checkpoint sets K.
        params = encoder.init_params(6, 8, 4, k, np.random.default_rng(1))
        encoder.save_checkpoint(params, runs / "synthetic" / cli.CHECKPOINT_NAME)
        if tiny_video:
            frames = np.random.default_rng(2).normal(size=(k, 6))
            write_features(frames, data / "synthetic" / "features" / "tiny.totf")
        decoded = []
        viterbi = decode.viterbi_fixed_order

        def recording_viterbi(log_probs):
            decoded.append(viterbi(log_probs))
            return decoded[-1]

        monkeypatch.setattr(decode, "viterbi_fixed_order", recording_viterbi)
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", chunk)
        assert run("segment", data, "--checkpoints", runs, "--out", seg) == 0
        capsys.readouterr()

        videos = load_catalog(data, "synthetic").videos
        assert len(decoded) == len(videos)
        for video, result in zip(videos, decoded):
            labels = result.labels
            assert labels.size == video.num_frames
            written = (seg / "synthetic" / f"{video.video_id}.txt").read_bytes()
            assert written == ("\n".join(map(str, labels)) + "\n").encode()

    def test_eval_reports_and_writes_the_summary(self, trained, tmp_path, capsys):
        data, runs = trained
        seg = tmp_path / "segments"
        assert run("segment", data, "--checkpoints", runs, "--out", seg) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.txt"
        assert run("eval", data, "--pred", seg, "--out", report_path) == 0
        out = capsys.readouterr().out
        assert "activity = synthetic" in out
        assert "dataset_mof = " in out
        assert "dataset_f1 = " in out
        mof = float(next(l for l in out.splitlines() if l.startswith("mof")).split("=")[1])
        assert 0.0 <= mof <= 1.0
        report = report_path.read_text()
        assert "activity = synthetic" in report
        assert "dataset_mof = " in report

    def test_eval_against_ground_truth_is_perfect(self, dataset, tmp_path, capsys):
        # Copy the ground truth into prediction files (ids match names).
        from totseg.dataio import load_catalog

        catalog = load_catalog(dataset, "synthetic")
        pred_dir = tmp_path / "pred" / "synthetic"
        pred_dir.mkdir(parents=True)
        for video in catalog.videos:
            labels = catalog.video_labels(video)
            (pred_dir / f"{video.video_id}.txt").write_text(
                "\n".join(str(int(l)) for l in labels) + "\n"
            )
        assert run("eval", dataset, "--pred", tmp_path / "pred") == 0
        out = capsys.readouterr().out
        assert "mof = 1.0000" in out
        assert "f1 = 1.0000" in out
        assert "dataset_mof = 1.0000" in out

    def test_exclude_background_flag(self, dataset, tmp_path, capsys):
        from totseg.dataio import load_catalog

        catalog = load_catalog(dataset, "synthetic")
        pred_dir = tmp_path / "pred" / "synthetic"
        pred_dir.mkdir(parents=True)
        for video in catalog.videos:
            labels = catalog.video_labels(video)
            (pred_dir / f"{video.video_id}.txt").write_text(
                "\n".join(str(int(l)) for l in labels) + "\n"
            )
        assert (
            run("eval", dataset, "--pred", tmp_path / "pred", "--exclude-background", "0")
            == 0
        )
        assert "mof = 1.0000" in capsys.readouterr().out

    def test_eval_counts_only_the_ids_that_occur(self, tmp_path, capsys):
        # A table with a row per id up to the largest would need 10**12 rows.
        from totseg.dataio import load_catalog

        data = tmp_path / "data"
        assert run(*synth_args(data, k=4)) == 0
        catalog = load_catalog(data, "synthetic")
        cluster_ids = np.array([0, 1, 2, 10**12])
        pred_dir = tmp_path / "pred" / "synthetic"
        pred_dir.mkdir(parents=True)
        for video in catalog.videos:
            labels = cluster_ids[catalog.video_labels(video)]
            (pred_dir / f"{video.video_id}.txt").write_text(
                "\n".join(str(int(l)) for l in labels) + "\n"
            )
        report = tmp_path / "report.txt"
        assert run("eval", data, "--pred", tmp_path / "pred", "--out", report) == 0
        capsys.readouterr()
        text = report.read_text()
        assert "mapping = 0:0 1:1 2:2 1000000000000:3\n" in text
        assert "dataset_mof = 1.0000" in text


class TestMultiActivity:
    @pytest.fixture()
    def two_activities(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data, activity="cooking")) == 0
        assert run(*synth_args(data, activity="repair", seed=9)) == 0
        capsys.readouterr()
        return data

    def test_train_discovers_all_activities(self, two_activities, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert run(*train_args(two_activities, runs, iterations=2)) == 0
        out = capsys.readouterr().out
        assert (runs / "cooking" / "checkpoint.totc").is_file()
        assert (runs / "repair" / "checkpoint.totc").is_file()
        assert "cooking: 2 iterations" in out
        assert "repair: 2 iterations" in out

    def test_activity_flag_selects_one(self, two_activities, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert (
            run(*train_args(two_activities, runs, iterations=2, activity="repair"))
            == 0
        )
        capsys.readouterr()
        assert not (runs / "cooking").exists()
        assert (runs / "repair" / "checkpoint.totc").is_file()

    def test_flags_do_not_carry_over_to_the_next_call(
        self, two_activities, tmp_path, capsys
    ):
        # main() builds its parser once per process and parses each call afresh.
        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(*train_args(two_activities, first, iterations=1, activity="repair")) == 0
        assert run(*train_args(two_activities, second, iterations=1)) == 0
        out = capsys.readouterr().out
        assert "activity = repair  (flag)" in out
        assert not (first / "cooking").exists()
        assert (second / "cooking" / "checkpoint.totc").is_file()
        assert (second / "repair" / "checkpoint.totc").is_file()

    def test_outputs_do_not_depend_on_the_other_activities(
        self, two_activities, tmp_path, capsys
    ):
        together, alone = tmp_path / "together", tmp_path / "alone"
        assert run(*train_args(two_activities, together, iterations=2)) == 0
        for activity in ("repair", "cooking"):
            argv = train_args(two_activities, alone, iterations=2, activity=activity)
            assert run(*argv) == 0
        capsys.readouterr()
        written = tree_bytes(together)
        assert sorted(map(str, written)) == [
            "cooking/checkpoint.totc",
            "cooking/train.log",
            "repair/checkpoint.totc",
            "repair/train.log",
        ]
        assert written == tree_bytes(alone)

    def test_unknown_activity_is_a_data_error(self, two_activities, capsys):
        assert run("eval", two_activities, "--activity", "nope") == 2
        assert "activity 'nope' not found" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_dataset_path_is_usage(self, tmp_path, capsys):
        assert run("train", tmp_path / "absent") == 1
        assert "dataset path does not exist" in capsys.readouterr().err

    def test_missing_checkpoint_is_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        capsys.readouterr()
        assert run("segment", data, "--checkpoints", tmp_path / "none") == 2
        assert "no checkpoint for activity" in capsys.readouterr().err

    def test_missing_predictions_is_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        capsys.readouterr()
        assert run("eval", data, "--pred", tmp_path / "nowhere") == 2
        assert "missing prediction file" in capsys.readouterr().err

    def test_non_integer_predictions_are_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data, videos=1)) == 0
        capsys.readouterr()
        pred_dir = tmp_path / "pred" / "synthetic"
        pred_dir.mkdir(parents=True)
        (pred_dir / "video_000.txt").write_text("zero\none\n")
        assert run("eval", data, "--pred", tmp_path / "pred") == 2
        assert "must be integer cluster ids" in capsys.readouterr().err

    def test_checkpoint_feature_dim_mismatch_is_data(self, tmp_path, capsys):
        data6 = tmp_path / "d6"
        data5 = tmp_path / "d5"
        assert run(*synth_args(data6)) == 0
        assert run(*synth_args(data5, dim=5)) == 0
        runs = tmp_path / "runs"
        assert run(*train_args(data6, runs, iterations=2)) == 0
        capsys.readouterr()
        assert run("segment", data5, "--checkpoints", runs) == 2
        assert "expects 6-dim features" in capsys.readouterr().err

    def test_nan_features_are_a_data_error(self, tmp_path, capsys):
        base = tmp_path / "data" / "broken"
        (base / "features").mkdir(parents=True)
        (base / "mapping.txt").write_text("0 a\n1 b\n")
        frames = np.full((40, 3), np.nan)
        write_features(frames, base / "features" / "v0.totf")
        code = run(
            "train",
            tmp_path / "data",
            "--iterations",
            "1",
            "--batch",
            "8",
            "--videos-per-batch",
            "1",
            "--freeze-iters",
            "0",
            "--embed-dim",
            "4",
            "--out",
            tmp_path / "runs",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "v0.totf: non-finite feature value in frame " in err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run("frobnicate") == 1
        capsys.readouterr()

    # Malformed inputs below each exit 2 with one stderr line, no traceback.

    @pytest.fixture()
    def trained(self, tmp_path, capsys):
        data, runs = tmp_path / "data", tmp_path / "runs"
        assert run(*synth_args(data)) == 0
        assert run(*train_args(data, runs, iterations=2)) == 0
        capsys.readouterr()
        return data, runs

    @staticmethod
    def negative_prediction(data, runs, tmp_path):
        pred_dir = tmp_path / "pred" / "synthetic"
        pred_dir.mkdir(parents=True)
        for truth in sorted((data / "synthetic" / "groundTruth").glob("*.txt")):
            ids = ["0"] * len(truth.read_text().splitlines())
            if truth.stem == "video_000":
                ids[1] = "-1"
            (pred_dir / truth.name).write_text("\n".join(ids) + "\n")
        return ["eval", data, "--pred", tmp_path / "pred"], "video_000.txt"

    @staticmethod
    def prediction_beyond_64_bits(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        path = tmp_path / "pred" / "synthetic" / "video_000.txt"
        path.write_text(f"{10**20}\n" + path.read_text().split("\n", 1)[1])
        return argv, "video_000.txt: prediction ids must be below 2**63"

    @staticmethod
    def short_video(data, runs, tmp_path):
        write_features(np.ones((2, 6)), data / "synthetic" / "features" / "tiny.totf")
        return ["segment", data, "--checkpoints", runs], "video tiny of activity 'synthetic'"

    @staticmethod
    def truncated_features(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "video_001.totf"
        path.write_bytes(path.read_bytes()[:-4])
        return ["segment", data, "--checkpoints", runs], "video_001.totf"

    @staticmethod
    def features_wider_than_their_payload(data, runs, tmp_path):
        # Headers that claim 2**31 columns over the same payload: the catalog
        # finds the first file's short payload before any array is sized by
        # the header (the encoder's w1 would be hundreds of GiB).
        paths = sorted((data / "synthetic" / "features").glob("*.totf"))
        for path in paths:
            raw = bytearray(path.read_bytes())
            struct.pack_into("<I", raw, 10, 2**31)
            path.write_bytes(raw)
        argv = train_args(data, tmp_path / "out")
        return argv, f"{paths[0]}: row 0 extends past end of file"

    @staticmethod
    def inf_feature_in_training(data, runs, tmp_path):
        # One inf frame used to train on silently into a NaN checkpoint.
        path = data / "synthetic" / "features" / "video_001.totf"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 14 + 4 * 6 * 5, np.inf)  # frame 5, column 0
        path.write_bytes(raw)
        argv = train_args(data, tmp_path / "out")
        return argv, "video_001.totf: non-finite feature value in frame 5"

    @staticmethod
    def inf_feature_in_segment(data, runs, tmp_path):
        # Found only while video_001 is embedded, after video_000 decoded.
        path = data / "synthetic" / "features" / "video_001.totf"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 14 + 4 * 6 * 5, np.inf)  # frame 5, column 0
        path.write_bytes(raw)
        argv = ["segment", data, "--checkpoints", runs]
        return argv, "video_001.totf: non-finite feature value in frame 5"

    @staticmethod
    def bad_magic_features(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "video_002.totf"
        path.write_bytes(b"JUNK" + path.read_bytes()[4:])
        return ["segment", data, "--checkpoints", runs], "video_002.totf"

    @staticmethod
    def blank_ground_truth(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        (data / "synthetic" / "groundTruth" / "video_000.txt").write_text("")
        return argv, "video video_000: 0 labels for"

    @staticmethod
    def short_ground_truth(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        truth = data / "synthetic" / "groundTruth" / "video_001.txt"
        truth.write_text("".join(truth.read_text().splitlines(keepends=True)[:3]))
        return argv, "video video_001: 3 labels for"

    @staticmethod
    def activity_without_features(data, runs, tmp_path):
        (data / "empty" / "features").mkdir(parents=True)
        (data / "empty" / "mapping.txt").write_text("0 a\n1 b\n")
        argv = ["train", data, "--activity", "empty", "--iterations", "1"]
        return argv, "features: no .totf feature files"

    @staticmethod
    def videos_shorter_than_a_block(data, runs, tmp_path):
        argv = ["train", data, "--batch", "1000", "--iterations", "1"]
        return argv, "activity 'synthetic': need 2 videos with >= 500 frames"

    @staticmethod
    def mapping_with_an_id_gap(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        mapping = data / "synthetic" / "mapping.txt"
        mapping.write_text("0 action_0\n1 action_1\n5 action_2\n")
        return argv, f"{mapping}: action ids must be 0..2"

    @staticmethod
    def everything_excluded(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        return [*argv, "--exclude-background", "0", "1", "2"], "activity 'synthetic'"

    @staticmethod
    def excluded_id_not_an_action(data, runs, tmp_path):
        # Excluding nothing would score the background it was meant to drop.
        argv = zero_predictions(data, tmp_path)
        return [*argv, "--exclude-background", "99"], "activity 'synthetic': excluded id 99"

    @staticmethod
    def videos_without_frames(data, runs, tmp_path):
        base, pred = data / "hollow", tmp_path / "pred" / "hollow"
        (base / "groundTruth").mkdir(parents=True)
        pred.mkdir(parents=True)
        (base / "mapping.txt").write_text("0 a\n1 b\n")
        for name in ("v0", "v1"):
            write_features(np.zeros((0, 6)), base / "features" / f"{name}.totf")
            (base / "groundTruth" / f"{name}.txt").write_text("")
            (pred / f"{name}.txt").write_text("")
        argv = ["eval", data, "--activity", "hollow", "--pred", tmp_path / "pred"]
        return argv, "activity 'hollow': its videos have no frames"

    @staticmethod
    def checkpoint_with_trailing_bytes(data, runs, tmp_path):
        path = runs / "synthetic" / cli.CHECKPOINT_NAME
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        argv = ["segment", data, "--checkpoints", runs]
        return argv, f"{path}: checkpoint promises {size} bytes, file has {size + 4}"

    @staticmethod
    def features_with_trailing_bytes(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "video_001.totf"
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(7))
        argv = train_args(data, tmp_path / "out")
        return argv, f"{path}: feature file promises {size} bytes, file has {size + 7}"

    @staticmethod
    def features_with_trailing_bytes_in_segment(data, runs, tmp_path):
        # Found when segment loads the catalog, before any video is embedded.
        path = data / "synthetic" / "features" / "video_001.totf"
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(7))
        argv = ["segment", data, "--checkpoints", runs]
        return argv, f"{path}: feature file promises {size} bytes, file has {size + 7}"

    @staticmethod
    def prediction_not_utf8(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        path = tmp_path / "pred" / "synthetic" / "video_000.txt"
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        return argv, "video_000.txt: prediction lines must be integer cluster ids"

    @staticmethod
    def prediction_is_a_directory(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        path = tmp_path / "pred" / "synthetic" / "video_001.txt"
        path.unlink()
        path.mkdir()
        return argv, f"{path}: a directory, not a prediction file"

    @staticmethod
    def prediction_dir_is_a_file(data, runs, tmp_path):
        pred = tmp_path / "pred"
        pred.write_text("0\n")
        path = pred / "synthetic" / "video_000.txt"
        return ["eval", data, "--pred", pred], f"missing prediction file: {path}"

    @staticmethod
    def features_entry_is_a_directory(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "extra.totf"
        path.mkdir()
        argv = ["train", data, "--iterations", "1"]
        return argv, f"{path}: cannot read feature file: Is a directory"

    @staticmethod
    def features_entry_is_a_dangling_symlink(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "extra.totf"
        path.symlink_to(tmp_path / "nowhere.totf")
        argv = ["segment", data, "--checkpoints", runs]
        return argv, f"{path}: cannot read feature file: No such file or directory"

    @staticmethod
    def ground_truth_not_utf8(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        truth = data / "synthetic" / "groundTruth" / "video_002.txt"
        truth.write_bytes(truth.read_bytes().replace(b"action_1", b"acci\xf3n_1", 1))
        return argv, f"{truth}: not UTF-8 text"

    @staticmethod
    def mapping_not_utf8(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        mapping = data / "synthetic" / "mapping.txt"
        mapping.write_bytes(b"0 action_0\n1 action_1\n2 acci\xf3n_2\n")
        return argv, f"{mapping}: not UTF-8 text"

    @staticmethod
    def mapping_id_with_two_signs(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        mapping = data / "synthetic" / "mapping.txt"
        mapping.write_text("0 action_0\n--1 action_1\n2 action_2\n")
        return argv, f"{mapping}:2: expected '<id> <name>'"

    @staticmethod
    def mapping_id_in_superscript(data, runs, tmp_path):
        argv = zero_predictions(data, tmp_path)
        mapping = data / "synthetic" / "mapping.txt"
        mapping.write_text("0 action_0\n1 action_1\n\u00b2 action_2\n", encoding="utf-8")
        return argv, f"{mapping}:3: expected '<id> <name>'"

    @staticmethod
    def features_without_columns(data, runs, tmp_path):
        base = data / "flat"
        (base / "features").mkdir(parents=True)
        (base / "mapping.txt").write_text("0 a\n1 b\n")
        for name in ("v0", "v1"):
            write_features(np.empty((40, 0)), base / "features" / f"{name}.totf")
        argv = ["train", data, "--activity", "flat", "--batch", "8", "--iterations", "1"]
        return argv, "flat/features: feature files have 0 columns"

    @pytest.mark.parametrize(
        "corrupt",
        [
            negative_prediction,
            prediction_beyond_64_bits,
            short_video,
            truncated_features,
            features_wider_than_their_payload,
            inf_feature_in_training,
            inf_feature_in_segment,
            bad_magic_features,
            blank_ground_truth,
            short_ground_truth,
            activity_without_features,
            videos_shorter_than_a_block,
            mapping_with_an_id_gap,
            everything_excluded,
            excluded_id_not_an_action,
            videos_without_frames,
            checkpoint_header_case("checkpoint_old_version", 4, "<H", 1),
            checkpoint_header_case("checkpoint_zero_clusters", 18, "<I", 0),
            checkpoint_header_case("checkpoint_zero_embedding_dim", 14, "<I", 0),
            checkpoint_header_case("checkpoint_zero_hidden_width", 10, "<I", 0),
            checkpoint_header_case("checkpoint_zero_temperature", 23, "<d", 0.0),
            checkpoint_header_case("checkpoint_negative_temperature", 23, "<d", -0.1),
            checkpoint_header_case("checkpoint_nan_temperature", 23, "<d", np.nan),
            checkpoint_header_case("checkpoint_normalized_flag_7", 22, "<B", 7),
            checkpoint_with_trailing_bytes,
            features_with_trailing_bytes,
            features_with_trailing_bytes_in_segment,
            prediction_not_utf8,
            prediction_is_a_directory,
            prediction_dir_is_a_file,
            features_entry_is_a_directory,
            features_entry_is_a_dangling_symlink,
            ground_truth_not_utf8,
            mapping_not_utf8,
            mapping_id_with_two_signs,
            mapping_id_in_superscript,
            features_without_columns,
        ],
        ids=lambda case: case.__name__,
    )
    def test_data_error_is_one_line(self, trained, tmp_path, capsys, corrupt):
        data, runs = trained
        argv, names = corrupt(data, runs, tmp_path)
        code = run(*argv, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ")
        assert names in err
        assert "Traceback" not in err
        # No failure leaves anything under --out: no activity directory, and
        # so no checkpoint, train.log, label file or temp file.
        assert not (tmp_path / "out").exists()

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        """A synthetic dataset, its checkpoint and all-zero predictions."""
        root = tmp_path_factory.mktemp("pristine")
        assert run(*synth_args(root / "data")) == 0
        assert run(*train_args(root / "data", root / "runs", iterations=2)) == 0
        zero_predictions(root / "data", root)
        return root

    @pytest.mark.parametrize("command", ["train", "segment", "eval"])
    @pytest.mark.parametrize("corruption", FEATURE_CORRUPTIONS)
    def test_every_command_rejects_a_corrupt_feature_file(
        self, pristine, tmp_path, capsys, command, corruption
    ):
        # Each command reads every feature header first, so each of them
        # exits 2 with one line naming the file, and writes nothing.
        shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
        data, out = tmp_path / "data", tmp_path / "out"
        path = data / "synthetic" / "features" / "video_001.totf"
        path.write_bytes(FEATURE_CORRUPTIONS[corruption](path.read_bytes()))
        argv = {
            "train": train_args(data, out, iterations=1),
            "segment": ["segment", data, "--checkpoints", tmp_path / "runs", "--out", out],
            "eval": ["eval", data, "--pred", tmp_path / "pred", "--out", out / "report.txt"],
        }[command]
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    # Non-finite feature values read by segment exit 2 with one line naming
    # the file and frame; non-finite frame scores from the checkpoint's
    # weights exit 3 with one line naming the video.

    @pytest.mark.parametrize(
        "where, fmt, offset, value, code, message",
        [
            # Frame 5 of a 6-column feature file (offsets as in docs/file-formats.md).
            pytest.param(
                "data/synthetic/features/video_001.totf", "<f", 14 + 4 * 6 * 5, np.nan,
                2, "data error: {path}: non-finite feature value in frame 5",
                id="nan_feature_row",
            ),
            pytest.param(
                "data/synthetic/features/video_001.totf", "<f", 14 + 4 * 6 * 5, np.inf,
                2, "data error: {path}: non-finite feature value in frame 5",
                id="inf_feature_row",
            ),
            # The first encoder weight, w1[0, 0], right after the 31-byte
            # header, spoils every frame.
            pytest.param(
                "runs/synthetic/checkpoint.totc", "<d", 31, np.nan,
                3, "numerical failure: activity 'synthetic', video video_000: "
                "frame scores are not finite with the weights of {path}",
                id="nan_checkpoint_weight",
            ),
            # A weight near the float64 limit overflows the first layer, and
            # the saturated sigmoid would have hidden it from the decoder.
            pytest.param(
                "runs/synthetic/checkpoint.totc", "<d", 31, 1e308,
                3, "numerical failure: activity 'synthetic': overflow encountered "
                "in matmul during segmentation",
                id="overflowing_checkpoint_weight",
            ),
        ],
    )
    def test_non_finite_scores_in_segment_are_one_line(
        self, trained, tmp_path, capsys, where, fmt, offset, value, code, message
    ):
        data, runs = trained
        path = tmp_path / where
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(raw)
        status = run("segment", data, "--checkpoints", runs, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert status == code
        assert err == message.format(path=path) + "\n"
        assert not (tmp_path / "out").exists()

    # A RuntimeWarning during training exits 3 with one stderr line naming
    # it, and leaves no --out directory.

    @pytest.mark.parametrize(
        "flags, warning",
        [
            pytest.param(
                ["--tau", "1e-320"], "overflow encountered in divide",
                id="tau_whose_scaled_scores_overflow",
            ),
            pytest.param(
                ["--rho", "1e-320"], "overflow encountered in divide",
                id="rho_whose_kernel_overflows",
            ),
            pytest.param(
                ["--mode", "ot", "--epsilon", "1e-320"], "overflow encountered in divide",
                id="epsilon_whose_kernel_overflows",
            ),
            pytest.param(
                ["--sigma", "1e-200"], "divide by zero encountered in divide",
                id="sigma_whose_square_underflows",
            ),
            pytest.param(
                ["--tau", "1e-300"], "overflow encountered in square",
                id="tau_whose_adam_moment_overflows",
            ),
        ],
    )
    def test_warning_during_training_is_one_line(self, tmp_path, capsys, flags, warning):
        data, out = tmp_path / "data", tmp_path / "runs"
        assert run(*synth_args(data)) == 0
        capsys.readouterr()
        code = run("train", data, "--iterations", 3, "--batch", 16, "--out", out, *flags)
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: activity 'synthetic': ")
        assert f"{warning} during training" in err
        assert not out.exists()

    def test_features_not_finite_in_float32_are_one_line(self, tmp_path, capsys):
        # The noise alone overflows the float32 cast; mean plus noise also
        # overflows float64, and its RuntimeWarning is no second line.
        tiny = {"videos": 3, "k": 2, "dim": 2, "segment-len": 2}
        cases = {
            "data": {"noise": 1e308},
            "overflow": {**tiny, "noise": 1e308, "separation": 1e308},
        }
        for name, flags in cases.items():
            out = tmp_path / name
            code = run(*synth_args(out, **flags))
            err = capsys.readouterr().err
            assert code == 2
            assert err == (
                "data error: video video_000: feature value in frame 0 is not finite in float32\n"
            )
            assert tree_bytes(out) == {}

    # Bad settings below each exit 1 with one stderr line, no traceback.

    @pytest.mark.parametrize(
        "command, flags, names",
        [
            pytest.param(
                "train",
                ["--videos-per-batch", "0"],
                "videos_per_batch must be >= 1, got 0",
                id="zero_videos_per_batch",
            ),
            pytest.param(
                "train",
                ["--videos-per-batch", "40", "--batch", "32"],
                "batch_size (32) must be a positive multiple of videos_per_batch (40)",
                id="batch_smaller_than_videos_per_batch",
            ),
            pytest.param(
                "train",
                ["--batch", "7"],
                "batch_size (7) must be a positive multiple of videos_per_batch (2)",
                id="batch_not_a_multiple",
            ),
            pytest.param(
                "train",
                ["--lr", "0"],
                "learning_rate must be positive, got 0.0",
                id="zero_learning_rate",
            ),
            pytest.param(
                "train",
                ["--wd", "-1"],
                "weight_decay must be >= 0, got -1.0",
                id="negative_weight_decay",
            ),
            pytest.param(
                "train",
                ["--marginal-tol", "nan"],
                "argument --marginal-tol: invalid finite_float value: 'nan'",
                id="nan_marginal_tolerance",
            ),
            pytest.param(
                "train",
                ["--rho", "inf"],
                "argument --rho: invalid finite_float value: 'inf'",
                id="infinite_rho",
            ),
            pytest.param(
                "train",
                ["--tau", "nan"],
                "argument --tau: invalid finite_float value: 'nan'",
                id="nan_temperature",
            ),
            pytest.param(
                "train",
                ["--sigma", "1e155"],
                "sigma must be at most 1.34078e+154 (a finite square), got 1e+155",
                id="sigma_whose_square_overflows",
            ),
            pytest.param(
                "train",
                ["--config", "x.cfg"],
                "unrecognized arguments: --config",
                id="config_file_flag",
            ),
            pytest.param(
                "train",
                ["--mode", "kmeans"],
                "argument --mode: invalid choice: 'kmeans'",
                id="bad_mode_choice",
            ),
            pytest.param(
                "synth",
                ["--seed", "-1"],
                "seed must be >= 0, got -1",
                id="synth_negative_seed",
            ),
            pytest.param(
                "train",
                ["--seed", "-1"],
                "seed must be >= 0, got -1",
                id="train_negative_seed",
            ),
            pytest.param(
                "synth",
                ["--noise", "inf"],
                "argument --noise: invalid finite_float value: 'inf'",
                id="infinite_noise",
            ),
            pytest.param(
                "train",
                ["--activity", ","],
                "--activity ',' names no activity",
                id="train_activity_list_without_a_name",
            ),
            pytest.param(
                "segment",
                ["--activity", ","],
                "--activity ',' names no activity",
                id="segment_activity_list_without_a_name",
            ),
            pytest.param(
                "eval",
                ["--activity", ","],
                "--activity ',' names no activity",
                id="eval_activity_list_without_a_name",
            ),
            pytest.param(
                "train",
                ["--activity", "synthetic,synthetic"],
                "--activity 'synthetic,synthetic' names 'synthetic' twice",
                id="train_activity_named_twice",
            ),
            pytest.param(
                "segment",
                ["--activity", "synthetic,synthetic"],
                "--activity 'synthetic,synthetic' names 'synthetic' twice",
                id="segment_activity_named_twice",
            ),
            pytest.param(
                "eval",
                ["--activity", "synthetic,synthetic"],
                "--activity 'synthetic,synthetic' names 'synthetic' twice",
                id="eval_activity_named_twice",
            ),
            pytest.param(
                "synth",
                ["--activity", ""],
                "--activity '' is not an activity name",
                id="synth_empty_activity",
            ),
            pytest.param(
                "synth",
                ["--activity", "."],
                "--activity '.' is not an activity name",
                id="synth_activity_dot",
            ),
            pytest.param(
                "synth",
                ["--activity", ".."],
                "--activity '..' is not an activity name",
                id="synth_activity_dot_dot",
            ),
            pytest.param(
                "synth",
                ["--activity", "a/b"],
                "--activity 'a/b' is not an activity name",
                id="synth_activity_with_a_slash",
            ),
            pytest.param(
                "synth",
                ["--activity", "a,b"],
                "--activity 'a,b' is not an activity name",
                id="synth_activity_with_a_comma",
            ),
            pytest.param(
                "synth",
                ["--activity", " x"],
                "--activity ' x' is not an activity name",
                id="synth_activity_with_surrounding_space",
            ),
            pytest.param(
                "synth",
                ["--dim", "100000000000000000000"],
                "the cluster-mean basis would be a 100000000000000000000 x 5",
                id="synth_dim_past_numpy_limits",
            ),
            pytest.param(
                "synth",
                ["--segment-len", "100000000000000000000"],
                "the longest segment would be a",
                id="synth_segment_len_past_numpy_limits",
            ),
            pytest.param(
                "train",
                ["--embed-dim", "100000000000000000000"],
                "the encoder's w2 would be a 200000000000000000000 x 100000000000000000000",
                id="train_embed_dim_past_numpy_limits",
            ),
        ],
    )
    def test_usage_error_is_one_line(
        self, trained, tmp_path, capsys, command, flags, names
    ):
        data, runs = trained
        # Arguments that make each run go on to its work without the check.
        argv = {
            "synth": ["synth", tmp_path / "out"],
            "train": ["train", data, "--iterations", 1, "--out", tmp_path / "out"],
            "segment": ["segment", data, "--checkpoints", runs, "--out", tmp_path / "out"],
        }.get(command) or zero_predictions(data, tmp_path)
        before = sorted(tmp_path.rglob("*"))
        code = run(*argv, *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert names in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before  # rejected before any write

    # An output path with a file in the way, or an output file path that is a
    # directory, exits 1 with one line naming it.

    @pytest.mark.parametrize(
        "command, out, names",
        [
            ("synth", "a_file", "directory {tmp}/a_file/synthetic"),
            ("train", "a_file", "directory {tmp}/a_file/synthetic"),
            ("segment", "a_file", "directory {tmp}/a_file/synthetic"),
            ("eval", "a_file/report.txt", "directory {tmp}/a_file: "),
            ("eval", "a_dir", "report to {tmp}/a_dir: a directory"),
            ("train", "log_dir", "training log to {tmp}/log_dir/synthetic/train.log: a"),
            (
                "train",
                "checkpoint_dir",
                "checkpoint to {tmp}/checkpoint_dir/synthetic/checkpoint.totc: a",
            ),
            (
                "segment",
                "labels_dir",
                "label file to {tmp}/labels_dir/synthetic/video_000.txt: a",
            ),
            ("synth", "features_file", "write {tmp}/features_file/synthetic/features: File"),
            (
                "synth",
                "truth_dir",
                "write {tmp}/truth_dir/synthetic/groundTruth/video_000.txt: Is a",
            ),
            ("synth", "mapping_dir", "write {tmp}/mapping_dir/synthetic/mapping.txt: Is a"),
            (
                "synth",
                "last_truth_dir",
                "write {tmp}/last_truth_dir/synthetic/groundTruth/video_019.txt: Is a",
            ),
        ],
        ids=[
            "synth",
            "train",
            "segment",
            "eval",
            "eval_into_a_directory",
            "train_log_into_a_directory",
            "checkpoint_into_a_directory",
            "label_file_into_a_directory",
            "synth_features_dir_is_a_file",
            "synth_ground_truth_file_is_a_directory",
            "synth_mapping_is_a_directory",
            "synth_last_ground_truth_is_a_directory_leaves_no_partial_dataset",
        ],
    )
    def test_output_path_that_cannot_be_created_is_one_line(
        self, trained, tmp_path, capsys, command, out, names
    ):
        data, runs = trained
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        for blocked in (
            "log_dir/synthetic/train.log",
            "checkpoint_dir/synthetic/checkpoint.totc",
            "labels_dir/synthetic/video_000.txt",
            "truth_dir/synthetic/groundTruth/video_000.txt",
            "mapping_dir/synthetic/mapping.txt",
            "last_truth_dir/synthetic/groundTruth/video_019.txt",
        ):
            (tmp_path / blocked).mkdir(parents=True)
        (tmp_path / "features_file" / "synthetic").mkdir(parents=True)
        (tmp_path / "features_file" / "synthetic" / "features").write_text("")
        argv = {
            "synth": ["synth", tmp_path / out],
            "train": ["train", data, "--iterations", 1],
            "segment": ["segment", data, "--checkpoints", runs],
        }.get(command) or zero_predictions(data, tmp_path)
        if command != "synth":
            argv += ["--out", tmp_path / out]
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert names.format(tmp=tmp_path) in err
        assert "Traceback" not in err
        if command == "synth":
            dataset = tmp_path / out / "synthetic"
            assert not (dataset / "mapping.txt").is_file()
            assert not (dataset / "features").is_dir()
