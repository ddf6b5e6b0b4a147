"""Command-line interface: file outputs, exit codes, error channels."""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import swarmtrack
from swarmtrack import io_formats
from swarmtrack.cli import build_parser
from swarmtrack.io_formats import read_mask, read_poses, read_trajectory
from swarmtrack.metrics import relative_distance_error
from tests.conftest import (
    frame_values,
    invoke_cli,
    small_run_config,
    small_scenario,
    write_json,
)


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """One simulated scenario shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli-scenario")
    cfg = write_json(root / "scenario.json", small_scenario())
    out = root / "sim"
    assert invoke_cli("simulate", "--config", cfg, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def track_dir(scenario_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-track")
    cfg = write_json(root / "run.json", small_run_config())
    out = root / "track"
    code = invoke_cli(
        "track",
        "--masks", scenario_dir / "masks",
        "--sensors", scenario_dir / "sensors.csv",
        "--config", cfg,
        "--out", out,
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_complete_scenario_directory(self, scenario_dir):
        assert len(list((scenario_dir / "masks").glob("*.pgm"))) == 45
        assert len(list((scenario_dir / "gt_masks").glob("*.pgm"))) == 45
        for name in ("sensors.csv", "gt_poses.csv", "gt_track.csv",
                     "scenario.json", "effective_config.json", "version.txt"):
            assert (scenario_dir / name).is_file(), name
        assert (scenario_dir / "version.txt").read_text() == swarmtrack.__version__ + "\n"
        effective = json.loads((scenario_dir / "effective_config.json").read_text())
        assert effective["command"] == "simulate"
        assert effective["scenario"]["duration"] == 45

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", small_scenario(duration=8))
        for out in ("a", "b"):
            assert invoke_cli("simulate", "--config", cfg, "--out", tmp_path / out) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        names = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
        assert len(names) == 2 * 8 + 6
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_shorter_rerun_into_same_out_leaves_no_stale_frames(self, tmp_path):
        out = tmp_path / "sim"
        for duration in (30, 20):
            cfg = write_json(tmp_path / f"s{duration}.json", small_scenario(duration=duration))
            assert invoke_cli("simulate", "--config", cfg, "--out", out) == 0
        for kind in ("masks", "gt_masks"):
            assert len(list((out / kind).glob("*.pgm"))) == 20, kind
        run = write_json(tmp_path / "run.json", small_run_config())
        assert invoke_cli(
            "track", "--masks", out / "masks", "--sensors", out / "sensors.csv",
            "--config", run, "--out", tmp_path / "track",
        ) == 0

    def test_constraint_violation_exits_2_naming_field(self, tmp_path, run_cli):
        doc = small_scenario()
        doc["drone"]["altitude"] = 0.0
        cfg = write_json(tmp_path / "bad.json", doc)
        code, _, err = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2
        assert "error:" in err and "drone.altitude" in err

    def test_unknown_key_exits_2(self, tmp_path, run_cli):
        doc = small_scenario()
        doc["frame_rate"] = 30
        cfg = write_json(tmp_path / "bad.json", doc)
        code, _, err = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2 and "unknown key" in err

    def test_malformed_json_exits_2(self, tmp_path, run_cli):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2 and "not valid JSON" in err

    def test_negative_seed_exits_2_before_writing(self, tmp_path, run_cli):
        cfg = write_json(tmp_path / "bad.json", small_scenario(seed=-1))
        out = tmp_path / "o"
        code, _, err = run_cli("simulate", "--config", cfg, "--out", out)
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 2 and errors == ["error: seed: must be >= 0, got -1"]
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, run_cli):
        code, _, err = run_cli(
            "simulate", "--config", tmp_path / "absent.json", "--out", tmp_path / "o"
        )
        assert code == 2 and "cannot read config" in err

    def test_swarm_leaving_frame_exits_2_before_writing(self, tmp_path, run_cli):
        # Drifting at 8 m/s the swarm leaves the image at frame 38 of 45.
        doc = small_scenario(swarm={"waypoints": [[0.0, 0.0], [500.0, 0.0]], "speed": 8.0})
        cfg = write_json(tmp_path / "drift.json", doc)
        out = tmp_path / "o"
        code, _, err = run_cli("simulate", "--config", cfg, "--out", out)
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 2 and len(errors) == 1
        assert "swarm leaves frame at frame 38" in errors[0]
        assert not out.exists()


# Config files that are not UTF-8, or that nest deeper than the JSON parser
# recurses: each is a usage error.
BAD_CONFIGS = {
    "non-utf8": (b'{"seed": 3,\n "\xff": 1}\n', "can't decode byte 0xff in position 14"),
    "deep-nesting": (b"[" * 200_000, "error: config is not valid JSON:"),
}


@pytest.mark.parametrize("command", ["simulate", "track"])
@pytest.mark.parametrize("bad", sorted(BAD_CONFIGS))
def test_a_bad_config_file_exits_2_with_one_error_line(tmp_path, run_cli, command, bad):
    content, message = BAD_CONFIGS[bad]
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    out = tmp_path / "o"
    inputs = ("--masks", tmp_path, "--sensors", tmp_path / "s.csv") if command == "track" else ()
    code, _, err = run_cli(command, *inputs, "--config", cfg, "--out", out)
    assert code == 2 and len(err.splitlines()) == 1, err
    assert err.startswith("error:") and message in err
    if bad == "non-utf8":
        assert str(cfg) in err
    assert not out.exists()


class TestFuse:
    def test_writes_one_pose_per_frame(self, scenario_dir, tmp_path):
        out = tmp_path / "fused"
        code = invoke_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", out,
        )
        assert code == 0
        poses = read_poses(out / "fused_poses.csv")
        assert len(poses) == 45  # full log span at the log's own rate
        assert (out / "effective_config.json").is_file()

    def test_n_frames_limits_output(self, scenario_dir, tmp_path):
        out = tmp_path / "fused"
        code = invoke_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", out, "--n-frames", 10,
        )
        assert code == 0
        assert len(read_poses(out / "fused_poses.csv")) == 10

    def test_bad_noise_flag_exits_2(self, scenario_dir, tmp_path, run_cli):
        code, _, err = run_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", tmp_path / "o", "--gps-sigma", 0.0,
        )
        assert code == 2 and "gps_sigma" in err

    def test_missing_log_exits_1(self, tmp_path, run_cli):
        code, _, err = run_cli(
            "fuse", "--sensors", tmp_path / "none.csv",
            "--fps", 15.0, "--out", tmp_path / "o",
        )
        assert code == 1 and "no such file" in err

    @pytest.mark.parametrize("n_frames", [0, -3])
    def test_non_positive_n_frames_exits_2(self, scenario_dir, tmp_path, run_cli, n_frames):
        out = tmp_path / "o"
        code, _, err = run_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", out, "--n-frames", n_frames,
        )
        assert code == 2
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: --n-frames must be >= 1, got {n_frames}"
        ]
        assert "Traceback" not in err
        assert not (out / "fused_poses.csv").exists()

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_sigma_whose_square_leaves_float_range_exits_2(
        self, scenario_dir, tmp_path, run_cli, sigma
    ):
        out = tmp_path / "o"
        code, _, err = run_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", out, "--gps-sigma", sigma,
        )
        assert code == 2
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "gps_sigma squared" in errors[0]
        assert "Traceback" not in err
        assert not (out / "fused_poses.csv").exists()

    def test_out_of_memory_exits_1_with_one_error_line(
        self, scenario_dir, tmp_path, run_cli, monkeypatch
    ):
        from swarmtrack import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "fuse_log", exhausted)
        out = tmp_path / "o"
        code, _, err = run_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv",
            "--fps", 15.0, "--out", out,
        )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and errors == ["error: fuse ran out of memory"], err
        assert "Traceback" not in err
        assert not out.exists()


class TestTrack:
    def test_outputs_trajectory_and_shapes(self, track_dir):
        track = read_trajectory(track_dir / "trajectory.csv")
        assert len(track["frame"]) == 45
        assert not track["lost"].any()
        assert len(list((track_dir / "shapes").glob("*.pgm"))) == 45
        effective = json.loads((track_dir / "effective_config.json").read_text())
        assert effective["noise"]["gps_sigma"] == 0.5  # default resolved
        assert effective["width"] == 320 and effective["height"] == 180

    def test_track_centers_on_static_blob(self, track_dir, scenario_dir):
        track = read_trajectory(track_dir / "trajectory.csv")
        gt = read_trajectory(scenario_dir / "gt_track.csv")
        err = np.hypot(*(track["uv"] - gt["uv"]).T)
        assert np.median(err) < 5.0
        # hovering drone over a static swarm: world positions near origin
        assert np.abs(track["world"][10:]).max() < 2.0

    def test_shapes_overlap_ground_truth(self, track_dir, scenario_dir):
        from swarmtrack.io_formats import read_binary_mask
        from swarmtrack.metrics import MaskScoreAccumulator
        s = MaskScoreAccumulator().add(
            read_binary_mask(track_dir / "shapes" / "000030.pgm"),
            read_binary_mask(scenario_dir / "gt_masks" / "000030.pgm"),
        )
        assert s.iou > 0.3

    def test_shorter_rerun_into_same_out_leaves_no_stale_shapes(self, scenario_dir, tmp_path):
        short = tmp_path / "short"
        scen = write_json(tmp_path / "s.json", small_scenario(duration=20))
        assert invoke_cli("simulate", "--config", scen, "--out", short) == 0
        cfg = write_json(tmp_path / "run.json", small_run_config())
        out = tmp_path / "track"
        for sim in (scenario_dir, short):
            assert invoke_cli(
                "track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
                "--config", cfg, "--out", out,
            ) == 0
        assert len(list((out / "shapes").glob("*.pgm"))) == 20
        assert invoke_cli("eval", "--pred", out, "--gt", short, "--out", tmp_path / "eval") == 0

    def test_rerun_is_byte_identical(self, scenario_dir, tmp_path):
        cfg = write_json(tmp_path / "run.json", small_run_config())
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert invoke_cli(
                "track", "--masks", scenario_dir / "masks",
                "--sensors", scenario_dir / "sensors.csv",
                "--config", cfg, "--out", out,
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        for p in sorted((a / "shapes").glob("*.pgm")):
            assert p.read_bytes() == (b / "shapes" / p.name).read_bytes()

    def test_reads_each_mask_once(self, scenario_dir, tmp_path, monkeypatch):
        calls = []

        def counting_read_mask(path):
            calls.append(Path(path).name)
            return read_mask(path)

        monkeypatch.setattr(io_formats, "read_mask", counting_read_mask)
        cfg = write_json(tmp_path / "run.json", small_run_config())
        assert invoke_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "t",
        ) == 0
        frames = sorted(p.name for p in (scenario_dir / "masks").glob("*.pgm"))
        assert len(frames) == 45
        assert calls == frames

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"smoothing": 3}, "smoothing"),
            ({"orientation_alpha": 1.0}, "orientation_alpha"),
            ({"tracker": {"likelihood_exponent": 1.0}}, "tracker.likelihood_exponent"),
            ({"tracker": {"resample_every": 1}}, "tracker.resample_every"),
            ({"tracker": {"lost_reinit_after": 30}}, "tracker.lost_reinit_after"),
        ],
        ids=["smoothing", "orientation_alpha", "tracker.likelihood_exponent",
             "tracker.resample_every", "tracker.lost_reinit_after"],
    )
    def test_unknown_config_key_exits_2(self, scenario_dir, tmp_path, run_cli, edit, key):
        cfg = write_json(tmp_path / "run.json", small_run_config(**edit))
        out = tmp_path / "o"
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", out,
        )
        assert code == 2 and err == f"error: {key}: unknown key\n", err
        assert not out.exists()

    def test_bad_tracker_value_exits_2(self, scenario_dir, tmp_path, run_cli):
        cfg = write_json(
            tmp_path / "run.json",
            small_run_config(tracker={"n_particles": 1}),
        )
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "o",
        )
        assert code == 2 and "tracker." in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"alpha_px": math.nan}, "alpha_px"),
            ({"fps": math.nan}, "fps"),
            ({"fps": math.inf}, "fps"),
            ({"tracker": {"n_particles": 500, "seed": -1}}, "tracker.seed"),
        ],
        ids=["alpha_px-nan", "fps-nan", "fps-inf", "tracker.seed-neg"],
    )
    def test_out_of_range_value_exits_2_naming_key(
        self, scenario_dir, tmp_path, run_cli, edit, key
    ):
        cfg = write_json(tmp_path / "run.json", small_run_config(**edit))
        out = tmp_path / "o"
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", out,
        )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 2 and len(errors) == 1 and errors[0].startswith(f"error: {key}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_effective_config_holds_every_resolved_setting(self, track_dir, scenario_dir):
        expected = {
            "alpha_px": 8.0,
            "command": "track",
            "cx": None,
            "cy": None,
            "focal_px": 350.0,
            "fps": 15.0,
            "height": 180,
            "masks": str(scenario_dir / "masks"),
            "noise": {"gps_sigma": 0.5, "imu_vel_sigma": 0.2, "process_accel_sigma": 1.0},
            "sensors": str(scenario_dir / "sensors.csv"),
            "tracker": {
                "motion_noise_sigma": 5.0,
                "n_particles": 500,
                "seed": 0,
            },
            "width": 320,
        }
        text = (track_dir / "effective_config.json").read_text()
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_noise_sigma_whose_square_leaves_float_range_exits_2(
        self, scenario_dir, tmp_path, run_cli, sigma
    ):
        cfg = write_json(
            tmp_path / "run.json",
            small_run_config(noise={"imu_vel_sigma": sigma}),
        )
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "o",
        )
        assert code == 2 and "noise.imu_vel_sigma squared" in err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_centroid_ray_missing_the_ground_leaves_no_output(
        self, scenario_dir, tmp_path, run_cli
    ):
        # Tip the camera to 179 deg pitch, almost straight up, on the last
        # frame only: every earlier frame tracks and projects normally.
        header, *rows = (scenario_dir / "sensors.csv").read_text().splitlines()
        pitch = header.split(",").index("pitch_deg")
        last = rows[-1].split(",")
        last[pitch] = "179.0"
        sensors = tmp_path / "tilted.csv"
        sensors.write_text("\n".join([header, *rows[:-1], ",".join(last)]) + "\n")
        cfg = write_json(tmp_path / "run.json", small_run_config())
        out = tmp_path / "o"
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", sensors, "--config", cfg, "--out", out,
        )
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1 and len(errors) == 1 and "viewing ray" in errors[0]
        assert "Traceback" not in err
        assert not (out / "shapes").exists()
        assert not (out / "trajectory.csv").exists()

    def test_missing_mask_directory_exits_1(self, scenario_dir, tmp_path, run_cli):
        cfg = write_json(tmp_path / "run.json", small_run_config())
        code, _, err = run_cli(
            "track", "--masks", tmp_path / "nothing",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "o",
        )
        assert code == 1 and "not a directory" in err


def _break_input(fault: str, masks: Path, sensors: Path, tmp: Path) -> Path:
    """Apply one fault to a copied mask directory or to a copy of the log;
    returns the sensor log to track with."""
    frame20 = masks / "000020.pgm"
    header, *rows = sensors.read_text().splitlines()
    if fault == "truncated-pgm":
        frame20.write_bytes(frame20.read_bytes()[:3000])
    elif fault == "oversize-pgm":
        raw = frame20.read_bytes()
        frame20.write_bytes(raw + raw[-640:])
    elif fault == "small-mask":
        grid = io_formats.quantize_mask(frame_values(read_mask(frame20))[::2, ::2])
        frame20.write_bytes(b"P5\n320 180\n255\n" + grid.tobytes())
    elif fault == "missing-mask":
        frame20.unlink()
    elif fault == "nan-gps":
        fields = rows[20].split(",")
        fields[header.split(",").index("gps_x_m")] = "nan"
        rows[20] = ",".join(fields)
    elif fault == "swapped-rows":
        rows[10], rows[11] = rows[11], rows[10]
    elif fault == "half-log":
        rows = rows[: len(rows) // 2]
    elif fault == "non-utf8-log":
        rows[20] = rows[20].replace(",", ",\udcff", 1)  # byte 0xff on line 22
    if fault in ("nan-gps", "swapped-rows", "half-log", "non-utf8-log"):
        sensors = tmp / "sensors.csv"
        text = "\n".join([header, *rows]) + "\n"
        sensors.write_bytes(text.encode("utf-8", "surrogateescape"))
    return sensors


class TestTrackFaults:
    """Bad input on a 40-frame cut of the default scenario: track exits 1
    with one error line, no traceback, and creates no --out directory."""

    @pytest.fixture(scope="class")
    def default_cut(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("default-cut")
        doc = json.loads(
            resources.files("swarmtrack.data").joinpath("default_scenario.json").read_text()
        )
        doc["duration"] = 40
        cfg = write_json(root / "scenario.json", doc)
        assert invoke_cli("simulate", "--config", cfg, "--out", root / "sim") == 0
        return root / "sim"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("truncated-pgm", "000020.pgm: byte 15: payload truncated"),
            ("oversize-pgm", "000020.pgm: byte 230415: 640 bytes after the payload"),
            ("small-mask", "frame 20: mask is 320x180, intrinsics say 640x360"),
            ("missing-mask", "expected frame file 000020.pgm, found 000021.pgm"),
            ("nan-gps", "sensors.csv:22: column 'gps_x_m': non-finite value"),
            ("swapped-rows", "sensors.csv:13: time"),
            ("half-log", "40 frames at 15.0 fps need 2.600s of log but it ends at 1.267s"),
            ("non-utf8-log", "sensors.csv:22: not UTF-8 (byte 0xff)"),
        ],
    )
    def test_exits_1_with_one_error_line_and_no_output(
        self, default_cut, tmp_path, run_cli, fault, message
    ):
        masks = tmp_path / "masks"
        shutil.copytree(default_cut / "masks", masks)
        sensors = _break_input(fault, masks, default_cut / "sensors.csv", tmp_path)
        out = tmp_path / "o"
        cfg = resources.files("swarmtrack.data").joinpath("default_run.json")
        with resources.as_file(cfg) as run_cfg:
            code, _, err = run_cli(
                "track", "--masks", masks, "--sensors", sensors,
                "--config", run_cfg, "--out", out,
            )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and len(errors) == 1 and message in errors[0], err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_exits_1_with_one_error_line(
        self, default_cut, tmp_path, run_cli, monkeypatch
    ):
        from swarmtrack import cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "track_sequence", exhausted)
        out = tmp_path / "o"
        cfg = resources.files("swarmtrack.data").joinpath("default_run.json")
        with resources.as_file(cfg) as run_cfg:
            code, _, err = run_cli(
                "track", "--masks", default_cut / "masks",
                "--sensors", default_cut / "sensors.csv",
                "--config", run_cfg, "--out", out,
            )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and errors == ["error: track ran out of memory"], err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_in_the_outlines_exits_1_with_one_error_line(
        self, default_cut, tmp_path, run_cli, monkeypatch
    ):
        import scipy.spatial

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(scipy.spatial, "Delaunay", exhausted)
        out = tmp_path / "o"
        cfg = resources.files("swarmtrack.data").joinpath("default_run.json")
        with resources.as_file(cfg) as run_cfg:
            code, _, err = run_cli(
                "track", "--masks", default_cut / "masks",
                "--sensors", default_cut / "sensors.csv",
                "--config", run_cfg, "--out", out,
            )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and errors == ["error: track ran out of memory"], err
        assert "Traceback" not in err
        assert not (out / "trajectory.csv").exists()


class TestProject:
    def test_ground_truth_round_trips(self, scenario_dir, tmp_path):
        out = tmp_path / "proj"
        code = invoke_cli(
            "project",
            "--trajectory", scenario_dir / "gt_track.csv",
            "--poses", scenario_dir / "gt_poses.csv",
            "--focal", 350.0, "--width", 320, "--height", 180,
            "--out", out,
        )
        assert code == 0
        original = read_trajectory(scenario_dir / "gt_track.csv")
        projected = read_trajectory(out / "trajectory.csv")
        np.testing.assert_array_equal(projected["uv"], original["uv"])
        np.testing.assert_allclose(projected["world"], original["world"], atol=1e-9)

    def test_reproduces_track_trajectory_from_fused_poses(self, scenario_dir, tmp_path):
        cfg = small_run_config(
            noise={"gps_sigma": 0.7, "imu_vel_sigma": 0.3, "process_accel_sigma": 1.0},
        )
        trk = tmp_path / "track"
        assert invoke_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", write_json(tmp_path / "run.json", cfg), "--out", trk,
        ) == 0
        n_frames = len(read_trajectory(trk / "trajectory.csv")["frame"])
        noise = cfg["noise"]
        assert invoke_cli(
            "fuse", "--sensors", scenario_dir / "sensors.csv", "--fps", cfg["fps"],
            "--n-frames", n_frames,
            "--gps-sigma", noise["gps_sigma"], "--imu-vel-sigma", noise["imu_vel_sigma"],
            "--process-accel-sigma", noise["process_accel_sigma"],
            "--out", tmp_path / "fuse",
        ) == 0
        out = tmp_path / "proj"
        assert invoke_cli(
            "project", "--trajectory", trk / "trajectory.csv",
            "--poses", tmp_path / "fuse" / "fused_poses.csv",
            "--focal", cfg["focal_px"], "--width", 320, "--height", 180,
            "--out", out,
        ) == 0
        assert (out / "trajectory.csv").read_bytes() == (trk / "trajectory.csv").read_bytes()

    def test_frame_without_pose_exits_1(self, scenario_dir, tmp_path, run_cli):
        poses = (scenario_dir / "gt_poses.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(poses[:10]) + "\n")
        code, _, err = run_cli(
            "project", "--trajectory", scenario_dir / "gt_track.csv",
            "--poses", short, "--focal", 350.0, "--width", 320, "--height", 180,
            "--out", tmp_path / "o",
        )
        assert code == 1 and "has no pose" in err

    def test_negative_frame_exits_1(self, scenario_dir, tmp_path, run_cli):
        rows = (scenario_dir / "gt_track.csv").read_text().splitlines()
        assert rows[1].startswith("0,")
        rows[1] = "-1" + rows[1][1:]
        track = tmp_path / "track.csv"
        track.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        code, _, err = run_cli(
            "project", "--trajectory", track,
            "--poses", scenario_dir / "gt_poses.csv",
            "--focal", 350.0, "--width", 320, "--height", 180, "--out", out,
        )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and errors == [f"error: {track}:2: frame -1 is negative"], err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_focal_exits_2(self, scenario_dir, tmp_path, run_cli):
        code, _, err = run_cli(
            "project", "--trajectory", scenario_dir / "gt_track.csv",
            "--poses", scenario_dir / "gt_poses.csv",
            "--focal", -1.0, "--width", 320, "--height", 180,
            "--out", tmp_path / "o",
        )
        assert code == 2 and err == "error: focal length must be positive, got -1.0\n", err

    @pytest.mark.parametrize(
        "width, height, shown",
        [(0, 180, "0x180"), (320, -1, "320x-1")],
        ids=["width-0", "height-neg"],
    )
    def test_bad_image_size_exits_2(self, scenario_dir, tmp_path, run_cli, width, height, shown):
        out = tmp_path / "o"
        code, _, err = run_cli(
            "project", "--trajectory", scenario_dir / "gt_track.csv",
            "--poses", scenario_dir / "gt_poses.csv",
            "--focal", 350.0, "--width", width, "--height", height,
            "--out", out,
        )
        assert code == 2 and err == f"error: image size must be positive, got {shown}\n", err
        assert not out.exists()


class TestEval:
    def test_ground_truth_against_itself_is_perfect(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = invoke_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir, "--out", out
        )
        stdout = capsys.readouterr().out
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("radius_10", "radius_20", "radius_30"):
            assert report["sdr"][key] == 100.0
        assert report["sdr"]["monotone"] is True
        assert report["masks"]["micro"]["iou"] == 1.0
        assert report["world"]["rel_dist_mean_m"] == 0.0
        assert "sdr.radius_30=100.0" in stdout
        assert (out / "report.txt").is_file()

    def test_report_validates_against_bundled_schema(self, scenario_dir, track_dir, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources
        out = tmp_path / "eval"
        code = invoke_cli(
            "eval", "--pred", track_dir, "--gt", scenario_dir, "--out", out
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        schema = json.loads(
            resources.files("swarmtrack.data").joinpath("report.schema.json").read_text()
        )
        jsonschema.validate(report, schema)

    def test_tracker_output_scores_high_on_its_scenario(self, scenario_dir, track_dir, tmp_path):
        out = tmp_path / "eval"
        assert invoke_cli(
            "eval", "--pred", track_dir, "--gt", scenario_dir, "--out", out
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["sdr"]["radius_30"] >= 95.0
        assert report["masks"]["micro"]["iou"] >= 0.5
        assert report["frames"]["lost_pred"] == 0

    def test_custom_radii_name_report_keys(self, scenario_dir, tmp_path):
        out = tmp_path / "eval"
        assert invoke_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir,
            "--out", out, "--radii", "5,15",
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["sdr"]) == {"radius_5", "radius_15", "radius_scale", "monotone"}

    def test_unsorted_radii_exit_2(self, scenario_dir, tmp_path, run_cli):
        code, _, err = run_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir,
            "--out", tmp_path / "o", "--radii", "30,10",
        )
        assert code == 2 and "ascending" in err

    def test_non_numeric_radii_exit_2(self, scenario_dir, tmp_path, run_cli):
        code, _, err = run_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir,
            "--out", tmp_path / "o", "--radii", "ten,20",
        )
        assert code == 2 and "comma-separated" in err

    @pytest.mark.parametrize("radii, key", [
        ("0.5,0.5000001,30", "radius_0.5"),  # two radii, one key
        ("0.00001", "radius_1e-05"),  # not of the schema's form
        ("10,1000000", "radius_1e+06"),
    ])
    def test_radii_without_a_key_each_exit_2(self, scenario_dir, tmp_path, run_cli, radii, key):
        out = tmp_path / "o"
        code, _, err = run_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir,
            "--out", out, "--radii", radii,
        )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 2 and len(errors) == 1 and repr(key) in errors[0], err
        assert not out.exists()

    def test_out_of_memory_exits_1_with_one_error_line(
        self, scenario_dir, tmp_path, run_cli, monkeypatch
    ):
        from swarmtrack import cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "relative_distance_error", exhausted)
        out = tmp_path / "eval"
        code, _, err = run_cli(
            "eval", "--pred", scenario_dir, "--gt", scenario_dir, "--out", out
        )
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 1 and errors == ["error: eval ran out of memory"], err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_missing_prediction_exits_1(self, scenario_dir, tmp_path, run_cli):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            "eval", "--pred", empty, "--gt", scenario_dir, "--out", tmp_path / "o"
        )
        assert code == 1 and "none of" in err

    def test_partial_overlap_scores_matched_frames_and_skips_lost_ones(self, tmp_path):
        # Prediction: frames 0-9, 3 and 7 lost. Ground truth: frames 2-11.
        # SDR counts the 8 shared frames, lost or not; the world error the
        # 6 shared frames the prediction did not lose.
        header = "frame,u_px,v_px,world_x_m,world_y_m,lost_flag\n"
        pred_world = {f: (0.5 * f, 0.1 * f * f) for f in range(10)}
        gt_world = {f: (0.4 * f + 1.0, -0.3 * f) for f in range(2, 12)}
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        # The predicted center is 3f px right of the annotated one.
        (pred_dir / "trajectory.csv").write_text(header + "".join(
            f"{f},{100.0 + 3 * f!r},50.0,{x!r},{y!r},{int(f in (3, 7))}\n"
            for f, (x, y) in pred_world.items()
        ))
        (gt_dir / "gt_track.csv").write_text(header + "".join(
            f"{f},100.0,50.0,{x!r},{y!r},0\n" for f, (x, y) in gt_world.items()
        ))
        out = tmp_path / "eval"
        assert invoke_cli("eval", "--pred", pred_dir, "--gt", gt_dir, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["frames"] == {"common_track": 8, "lost_pred": 2}
        # Errors 6, 9, ..., 27 px over frames 2-9.
        assert [report["sdr"][f"radius_{r}"] for r in (10, 20, 30)] == [25.0, 62.5, 100.0]
        seen = (2, 4, 5, 6, 8, 9)
        mean_err, std_err = relative_distance_error(
            np.array([pred_world[f] for f in seen]), np.array([gt_world[f] for f in seen])
        )
        assert report["world"] == {
            "rel_dist_mean_m": mean_err, "rel_dist_std_m": std_err, "n_points": 6,
        }
        assert "masks" not in report


class TestNonFiniteFlags:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("fuse", ["--fps", "nan"], "--fps must be finite and > 0"),
            ("fuse", ["--fps", "inf"], "--fps must be finite and > 0"),
            ("eval", ["--radius-scale", "nan"], "--radius-scale must be finite and > 0"),
            ("eval", ["--radius-scale", "1e308"], "--radius-scale 1e+308 scales radius 10.0 to inf"),
            ("eval", ["--radii", "0.0001", "--radius-scale", "1e-321"],
             "--radius-scale 1e-321 scales radius 0.0001 to 0.0"),
            ("eval", ["--radii", "10,nan"], "--radii must be finite, positive and ascending"),
            ("eval", ["--radii", "nan"], "--radii must be finite, positive and ascending"),
            ("eval", ["--radii", "10,inf"], "--radii must be finite, positive and ascending"),
            ("eval", ["--radii", "10,,20"], "--radii must be comma-separated numbers"),
            ("eval", ["--radii", "1_0"], "--radii must be comma-separated numbers"),
            ("eval", ["--radii", "10,\u0662\u0660"], "--radii must be comma-separated numbers"),
        ],
        ids=["fps-nan", "fps-inf", "radius-scale-nan", "radius-scale-overflow", "radius-scale-underflow",
             "radii-10-nan", "radii-nan", "radii-10-inf", "radii-empty-field", "radii-digit-separator", "radii-non-ascii-digits"],
    )
    def test_exits_2_with_one_error_line(
        self, scenario_dir, track_dir, tmp_path, run_cli, command, flags, message
    ):
        out = tmp_path / "o"
        if command == "fuse":
            inputs = ["--sensors", scenario_dir / "sensors.csv"]
        else:
            inputs = ["--pred", track_dir, "--gt", scenario_dir]
        code, _, err = run_cli(command, *inputs, "--out", out, *flags)
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert code == 2 and len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err
        assert not out.exists()


class TestNumericFlagText:
    """Numeric flags take the ASCII forms the file readers take; float()
    and int() would also take each of these."""

    @pytest.mark.parametrize(
        "text", ["1_0", " 5", "\u0663"], ids=["digit-separator", "padded", "non-ascii-digit"]
    )
    @pytest.mark.parametrize(
        "command, flag, kind",
        [("eval", "--radius-scale", "a number"), ("fuse", "--fps", "a number"),
         ("fuse", "--n-frames", "an integer")],
        ids=["radius-scale", "fps", "n-frames"],
    )
    def test_exits_2_with_one_error_line(
        self, scenario_dir, track_dir, tmp_path, run_cli, command, flag, kind, text
    ):
        out = tmp_path / "o"
        if command == "fuse":
            inputs = ["--sensors", scenario_dir / "sensors.csv", "--fps", "15"]
        else:
            inputs = ["--pred", track_dir, "--gt", scenario_dir]
        code, _, err = run_cli(command, *inputs, "--out", out, flag, text)
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert code == 2 and len(errors) == 1, err
        assert errors[0].endswith(f"error: argument {flag}: not {kind}: {text!r}")
        assert "Traceback" not in err
        assert not out.exists()


def _fuse_stderr(scenario_dir: Path, out: Path, *flags: str) -> str:
    """Standard error of ``fuse`` in a fresh interpreter: in process the
    test runner's own log handler would turn basicConfig into a no-op."""
    env = {**os.environ, "PYTHONPATH": str(Path(swarmtrack.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "swarmtrack", *flags, "fuse",
         "--sensors", str(scenario_dir / "sensors.csv"), "--fps", "15", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


class TestLogLevel:
    def test_default_prints_info_lines(self, scenario_dir, tmp_path):
        out = tmp_path / "fuse"
        assert _fuse_stderr(scenario_dir, out) == f"INFO fused 45 poses -> {out / 'fused_poses.csv'}\n"

    def test_warning_silences_info_lines(self, scenario_dir, tmp_path):
        assert _fuse_stderr(scenario_dir, tmp_path / "fuse", "--log-level", "warning") == ""

    def test_unknown_level_exits_2(self, run_cli, tmp_path):
        code, _, err = run_cli("--log-level", "loud", "selftest")
        assert code == 2 and "--log-level" in err


class TestEntryPoint:
    def test_version_flag(self, run_cli):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.strip() == swarmtrack.__version__

    def test_missing_subcommand_exits_2(self, run_cli):
        code, _, err = run_cli()
        assert code == 2

    def test_selftest_passes(self, run_cli):
        code, out, _ = run_cli("selftest")
        assert code == 0
        assert "selftest: pass" in out
        assert "deterministic_trajectory" in out

    @pytest.mark.parametrize(
        "command, flags",
        [("track", ["--no-resample"]), ("fuse", ["--orientation-alpha", "0.5"])],
        ids=["track-no-resample", "fuse-orientation-alpha"],
    )
    def test_removed_flags_exit_2(self, scenario_dir, track_dir, tmp_path, run_cli, command, flags):
        out = tmp_path / "o"
        inputs = _command_inputs(command, scenario_dir, track_dir, tmp_path)
        code, _, err = run_cli(command, *inputs, "--out", out, *flags)
        assert code == 2 and f"unrecognized arguments: {' '.join(flags)}" in err
        assert not out.exists()


def _command_inputs(command, scenario_dir, track_dir, tmp_path):
    """Valid inputs of each command but its output directory."""
    sensors = scenario_dir / "sensors.csv"
    if command == "simulate":
        return ["--config", write_json(tmp_path / "scenario.json", small_scenario())]
    if command == "fuse":
        return ["--sensors", sensors, "--fps", "15"]
    if command == "track":
        cfg = write_json(tmp_path / "run.json", small_run_config())
        return ["--masks", scenario_dir / "masks", "--sensors", sensors, "--config", cfg]
    if command == "project":
        return ["--trajectory", scenario_dir / "gt_track.csv",
                "--poses", scenario_dir / "gt_poses.csv",
                "--focal", "350", "--width", "320", "--height", "180"]
    if command == "eval":
        return ["--pred", track_dir, "--gt", scenario_dir]
    return []


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "fuse", "track", "project", "eval", "selftest"])
def test_an_output_directory_that_is_a_file_exits_2_before_any_work(
    scenario_dir, track_dir, tmp_path, run_cli, command, under
):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory\n")
    out = blocker / "sub" if under else blocker
    flag = "--keep" if command == "selftest" else "--out"
    inputs = _command_inputs(command, scenario_dir, track_dir, tmp_path)
    code, stdout, err = run_cli(command, *inputs, flag, out)
    assert code == 2 and err == f"error: {flag} {out}: {blocker} is not a directory\n", err
    assert stdout == ""
    assert blocker.read_bytes() == b"not a directory\n"


# The entries each command writes into --out, and whether each is a directory.
PROVENANCE = {"effective_config.json": False, "version.txt": False}
OUT_ENTRIES = {
    "simulate": {"masks": True, "gt_masks": True, "sensors.csv": False,
                 "gt_poses.csv": False, "gt_track.csv": False, "scenario.json": False},
    "fuse": {"fused_poses.csv": False},
    "track": {"shapes": True, "trajectory.csv": False},
    "project": {"trajectory.csv": False},
    "eval": {"report.json": False, "report.txt": False},
}


@pytest.mark.parametrize("command", sorted(OUT_ENTRIES))
def test_each_command_writes_exactly_its_listed_entries(
    scenario_dir, track_dir, tmp_path, command
):
    out = tmp_path / "o"
    inputs = _command_inputs(command, scenario_dir, track_dir, tmp_path)
    assert invoke_cli(command, *inputs, "--out", out) == 0
    written = {p.name: p.is_dir() for p in out.iterdir()}
    assert written == {**OUT_ENTRIES[command], **PROVENANCE}


@pytest.mark.parametrize("command, name, is_dir", [
    pytest.param(command, name, is_dir, id=f"{command}-{name}")
    for command, entries in sorted(OUT_ENTRIES.items())
    for name, is_dir in {**entries, **PROVENANCE}.items()
])
def test_an_output_entry_of_the_wrong_kind_exits_2_before_any_work(
    scenario_dir, track_dir, tmp_path, run_cli, command, name, is_dir
):
    out = tmp_path / "o"
    out.mkdir()
    entry = out / name
    if is_dir:
        entry.write_bytes(b"not a directory\n")
    else:
        entry.mkdir()
    inputs = _command_inputs(command, scenario_dir, track_dir, tmp_path)
    code, stdout, err = run_cli(command, *inputs, "--out", out)
    kind = "is not a directory" if is_dir else "is a directory"
    assert code == 2 and err == f"error: --out {out}: {entry} {kind}\n", err
    assert stdout == ""
    assert [p.name for p in out.iterdir()] == [name]
    assert entry.is_dir() != is_dir
    if is_dir:
        assert entry.read_bytes() == b"not a directory\n"
    else:
        assert not any(entry.iterdir())


def _readme_synopsis_flags() -> dict[str, set[str]]:
    """Flags in the first code block of each ``### <command>`` section of
    the README's CLI part."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_part = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {}
    for section in cli_part.split("\n### ")[1:]:
        name, body = section.split("\n", 1)
        blocks = body.split("```")
        synopsis = blocks[1] if len(blocks) > 2 else ""
        flags[name.strip()] = set(re.findall(r"--[a-z][a-z0-9-]*", synopsis))
    return flags


def test_readme_synopses_name_exactly_each_subcommands_flags():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    parser_flags = {
        name: {o for a in sub._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
        for name, sub in commands.items()
    }
    assert _readme_synopsis_flags() == parser_flags
