"""End-to-end tests of the command-line pipeline."""

import filecmp

import numpy as np
import pytest

from totseg import cli
from totseg.dataio import FeatureSequence, write_features


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


class TestConfigResolution:
    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# generator knobs\ndim = 5\nvideos = 3\n")
        assert (
            run("synth", tmp_path / "data", "--config", config, "--dim", "6") == 0
        )
        out = capsys.readouterr().out
        assert "dim = 6  (flag)" in out
        assert "videos = 3  (file)" in out
        assert "k = 5  (default)" in out
        features = list((tmp_path / "data" / "synthetic" / "features").glob("*.totf"))
        assert len(features) == 3

    def test_unknown_key_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("videos = 3\nbogus = 1\n")
        assert run("synth", tmp_path / "data", "--config", config) == 1
        err = capsys.readouterr().err
        assert f"{config}:2" in err
        assert "unknown config key 'bogus'" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("videos 3\n")
        assert run("synth", tmp_path / "data", "--config", config) == 1
        assert f"{config}:1" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path / "data", "--config", tmp_path / "no.cfg") == 1
        assert "config file not found" in capsys.readouterr().err

    def test_bad_choice_value_rejected(self, tmp_path, capsys):
        assert run("train", tmp_path, "--mode", "kmeans") == 1
        capsys.readouterr()

    def test_bad_choice_in_config_file_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mode = kmeans\n")
        assert run("train", tmp_path, "--config", config) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert "'mode' must be one of" in err


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

    def test_parallel_training_matches_serial_output(
        self, two_activities, tmp_path, capsys
    ):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run(*train_args(two_activities, serial, iterations=2)) == 0
        assert (
            run(
                *train_args(two_activities, parallel, iterations=2),
                "--parallel-activities",
                "2",
            )
            == 0
        )
        capsys.readouterr()
        match, mismatch, errors = filecmp.cmpfiles(
            serial,
            parallel,
            ["cooking/checkpoint.totc", "repair/checkpoint.totc"],
            shallow=False,
        )
        assert mismatch == []
        assert errors == []
        assert len(match) == 2

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

    def test_nan_features_are_a_numerical_failure(self, tmp_path, capsys):
        base = tmp_path / "data" / "broken"
        (base / "features").mkdir(parents=True)
        (base / "mapping.txt").write_text("0 a\n1 b\n")
        frames = np.full((40, 3), np.nan)
        write_features(
            FeatureSequence(video_id="v0", num_frames=40, dim=3, array=frames),
            base / "features" / "v0.totf",
        )
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
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

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
    def short_video(data, runs, tmp_path):
        write_features(
            FeatureSequence(video_id="tiny", num_frames=2, dim=6, array=np.ones((2, 6))),
            data / "synthetic" / "features" / "tiny.totf",
        )
        return ["segment", data, "--checkpoints", runs], "video tiny of activity 'synthetic'"

    @staticmethod
    def truncated_features(data, runs, tmp_path):
        path = data / "synthetic" / "features" / "video_001.totf"
        path.write_bytes(path.read_bytes()[:-4])
        return ["segment", data, "--checkpoints", runs], "video_001.totf"

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

    @pytest.mark.parametrize(
        "corrupt",
        [
            negative_prediction,
            short_video,
            truncated_features,
            bad_magic_features,
            blank_ground_truth,
            short_ground_truth,
            activity_without_features,
            videos_shorter_than_a_block,
            mapping_with_an_id_gap,
            everything_excluded,
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
                "segment",
                ["--chunk-size", "0"],
                "chunk-size must be >= 1, got 0",
                id="zero_chunk_size",
            ),
            pytest.param(
                "segment",
                ["--chunk-size", "-5"],
                "chunk-size must be >= 1, got -5",
                id="negative_chunk_size",
            ),
        ],
    )
    def test_usage_error_is_one_line(
        self, trained, tmp_path, capsys, command, flags, names
    ):
        data, runs = trained
        # Flags that make each run go on to train or decode without the check.
        rest = ["--checkpoints", runs] if command == "segment" else ["--iterations", 1]
        code = run(command, data, *flags, *rest, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert names in err
        assert "Traceback" not in err
