"""Command-line interface: file outputs, exit codes, error channels."""
import json

import numpy as np
import pytest

import swarmtrack
from swarmtrack.io_formats import read_mask, read_poses, read_trajectory
from tests.conftest import invoke_cli, small_run_config, small_scenario, write_json


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

    def test_missing_config_file_exits_2(self, tmp_path, run_cli):
        code, _, err = run_cli(
            "simulate", "--config", tmp_path / "absent.json", "--out", tmp_path / "o"
        )
        assert code == 2 and "cannot read config" in err


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


class TestTrack:
    def test_outputs_trajectory_and_shapes(self, track_dir):
        track = read_trajectory(track_dir / "trajectory.csv")
        assert len(track["frame"]) == 45
        assert not track["lost"].any()
        assert len(list((track_dir / "shapes").glob("*.pgm"))) == 45
        effective = json.loads((track_dir / "effective_config.json").read_text())
        assert effective["tracker"]["lost_reinit_after"] == 30  # default resolved
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
        from swarmtrack.metrics import mask_scores
        s = mask_scores(
            read_binary_mask(track_dir / "shapes" / "000030.pgm"),
            read_binary_mask(scenario_dir / "gt_masks" / "000030.pgm"),
        )
        assert s.iou > 0.3

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

    def test_no_resample_flag_recorded_and_applied(self, scenario_dir, tmp_path):
        cfg = write_json(tmp_path / "run.json", small_run_config())
        out = tmp_path / "t"
        assert invoke_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", out, "--no-resample",
        ) == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["no_resample"] is True
        assert effective["tracker"]["resample_every"] == 0

    def test_unknown_config_key_exits_2(self, scenario_dir, tmp_path, run_cli):
        cfg = write_json(tmp_path / "run.json", small_run_config(smoothing=3))
        code, _, err = run_cli(
            "track", "--masks", scenario_dir / "masks",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "o",
        )
        assert code == 2 and "smoothing: unknown key" in err

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

    def test_missing_mask_directory_exits_1(self, scenario_dir, tmp_path, run_cli):
        cfg = write_json(tmp_path / "run.json", small_run_config())
        code, _, err = run_cli(
            "track", "--masks", tmp_path / "nothing",
            "--sensors", scenario_dir / "sensors.csv",
            "--config", cfg, "--out", tmp_path / "o",
        )
        assert code == 1 and "not a directory" in err


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

    def test_bad_focal_exits_2(self, scenario_dir, tmp_path, run_cli):
        code, _, err = run_cli(
            "project", "--trajectory", scenario_dir / "gt_track.csv",
            "--poses", scenario_dir / "gt_poses.csv",
            "--focal", -1.0, "--width", 320, "--height", 180,
            "--out", tmp_path / "o",
        )
        assert code == 2 and "--focal" in err


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

    def test_missing_prediction_exits_1(self, scenario_dir, tmp_path, run_cli):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            "eval", "--pred", empty, "--gt", scenario_dir, "--out", tmp_path / "o"
        )
        assert code == 1 and "none of" in err


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
