"""File formats: CSV logs, PGM masks, config JSON, reports."""
import json
import time
from importlib import resources

import numpy as np
import pytest

from swarmtrack.fusion import NoiseConfig, SensorLog
from swarmtrack.geometry import CameraPose
from swarmtrack.io_formats import (
    SENSOR_HEADER,
    FormatError,
    RunConfig,
    dump,
    load,
    mask_sequence_paths,
    quantize_mask,
    read_binary_mask,
    read_mask,
    read_poses,
    read_sensor_log,
    read_trajectory,
    remove_frames_from,
    scenario_config_from_json,
    write_mask,
    write_poses,
    write_report,
    write_sensor_log,
    write_trajectory,
)
from swarmtrack.shapes import BinaryMask
from swarmtrack.synth import ScenarioConfig, write_scenario
from swarmtrack.tracker import TrackerConfig
from tests.conftest import (
    frame_values,
    poses_of,
    simulate,
    small_run_config,
    small_scenario,
    soft_mask,
)


def sample_columns():
    """frame, t, gps, vel and att of a four-record log, as lists."""
    n = range(4)
    return (
        list(n),
        [i / 15.0 for i in n],
        [(1.0 + i * 0.1, -2.0, 60.0 + 0.01 * i) for i in n],
        [(0.31, -0.02, 0.001 * i) for i in n],
        [(0.5, 12.0 + i, -0.25) for i in n],
    )


def sample_log():
    return SensorLog(*sample_columns())


class TestSensorLog:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "sensors.csv"
        log = sample_log()
        write_sensor_log(log, path)
        assert read_sensor_log(path) == log

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "sensors.csv"
        empty = np.empty((0, 3))
        write_sensor_log(SensorLog([], [], empty, empty, empty), path)
        with pytest.raises(FormatError, match="empty log"):
            read_sensor_log(path)

    def test_non_increasing_time_names_the_line(self, tmp_path):
        path = tmp_path / "sensors.csv"
        frame, t, gps, vel, att = sample_columns()
        t[2] = t[1]
        att[2] = (0.0, 0.0, 0.0)
        write_sensor_log(SensorLog(frame, t, gps, vel, att), path)
        with pytest.raises(FormatError, match=r":4: time"):
            read_sensor_log(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "sensors.csv"
        write_sensor_log(sample_log(), path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r":3: expected 11 columns, got 10"):
            read_sensor_log(path)

    def test_non_numeric_field_names_line_and_column(self, tmp_path):
        path = tmp_path / "sensors.csv"
        write_sensor_log(sample_log(), path)
        text = path.read_text().replace("0.31", "fast", 1)
        path.write_text(text)
        with pytest.raises(FormatError, match=r":2: column 'vx_mps'"):
            read_sensor_log(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "sensors.csv"
        path.write_text("frame,time\n0,0.0\n")
        with pytest.raises(FormatError, match="bad header"):
            read_sensor_log(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            read_sensor_log(tmp_path / "nope.csv")


class TestPoses:
    def test_round_trip_is_exact(self, tmp_path):
        poses = [
            CameraPose(0.0, 0.0, 50.0),
            CameraPose(1.5, -0.25, 50.1, pitch=2.0, yaw=91.0, roll=-0.5),
        ]
        path = tmp_path / "poses.csv"
        write_poses(poses_of(poses), fps=15.0, path=path)
        assert list(read_poses(path)) == poses

    def test_frames_must_be_consecutive(self, tmp_path):
        path = tmp_path / "poses.csv"
        write_poses(poses_of([CameraPose(0, 0, 10), CameraPose(1, 0, 10)]), 10.0, path)
        text = path.read_text().replace("\n1,", "\n3,")
        path.write_text(text)
        with pytest.raises(FormatError, match="expected consecutive 1"):
            read_poses(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "poses.csv"
        write_poses(poses_of([]), 10.0, path)
        with pytest.raises(FormatError, match="no poses"):
            read_poses(path)


class TestTrajectory:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        uv = np.array([[10.5, 20.25], [11.0, 21.0]])
        world = np.array([[1.0, 2.0], [1.1, 2.1]])
        lost = np.array([False, True])
        write_trajectory([0, 4], uv, world, lost, path)
        out = read_trajectory(path)
        np.testing.assert_array_equal(out["frame"], [0, 4])
        np.testing.assert_array_equal(out["uv"], uv)
        np.testing.assert_array_equal(out["world"], world)
        np.testing.assert_array_equal(out["lost"], lost)

    def test_frames_must_increase(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(
            [0, 1], np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), path
        )
        text = path.read_text().replace("\n1,", "\n0,")
        path.write_text(text)
        with pytest.raises(FormatError, match="does not increase"):
            read_trajectory(path)

    def test_negative_frame_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(
            [0, 1], np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), path
        )
        path.write_text(path.read_text().replace("\n0,", "\n-1,"))
        with pytest.raises(FormatError, match=r"traj\.csv:2: frame -1 is negative"):
            read_trajectory(path)

    def test_lost_flag_must_be_binary(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory([0], np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1), path)
        path.write_text(path.read_text().replace(",1\n", ",2\n"))
        with pytest.raises(FormatError, match="lost_flag"):
            read_trajectory(path)

    def test_inconsistent_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent"):
            write_trajectory(
                [0, 1], np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2),
                tmp_path / "x.csv",
            )


def _two_faults(path, bad_field):
    """Line 2 of a CSV gets the text 'x' in field bad_field and line 3
    loses its last field: two faults, the earlier on line 2."""
    header, first, second, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[bad_field] = "x"
    second = second.rsplit(",", 1)[0]
    path.write_text("\n".join([header, ",".join(fields), second, *rest]) + "\n")


def _table_files(tmp_path):
    """A sensor log, a pose table and a trajectory, each of a few rows."""
    sensors, poses, traj = (tmp_path / n for n in ("s.csv", "p.csv", "t.csv"))
    write_sensor_log(sample_log(), sensors)
    write_poses(poses_of([CameraPose(0, 0, 10)] * 3), 10.0, poses)
    write_trajectory([0, 1, 2], np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3), traj)
    return sensors, poses, traj


@pytest.mark.parametrize("reader, index", [
    (read_sensor_log, 0), (read_poses, 1), (read_trajectory, 2),
], ids=["sensors", "poses", "trajectory"])
@pytest.mark.parametrize("byte", [0xFF, 0xE9])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, reader, index, byte):
    path = _table_files(tmp_path)[index]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",", b"," + bytes([byte]), 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(err.value) == f"{path}:3: not UTF-8 (byte 0x{byte:02x})"


class TestFirstFaultInFileOrder:
    """A file with two faults reports the one on the earlier line, whichever
    check finds each."""

    @pytest.mark.parametrize("reader, index, column", [
        (read_sensor_log, 0, "vx_mps"),
        (read_poses, 1, "z_m"),
        (read_trajectory, 2, "world_x_m"),
    ], ids=["sensors", "poses", "trajectory"])
    def test_bad_number_before_short_row(self, tmp_path, reader, index, column):
        path = _table_files(tmp_path)[index]
        bad_field = path.read_text().splitlines()[0].split(",").index(column)
        _two_faults(path, bad_field)
        with pytest.raises(FormatError) as err:
            reader(path)
        assert str(err.value) == f"{path}:2: column {column!r}: not a number: 'x'"

    def test_reader_rule_before_short_row(self, tmp_path):
        path = _table_files(tmp_path)[2]
        _two_faults(path, 0)
        path.write_text(path.read_text().replace("\nx,", "\n-1,"))
        with pytest.raises(FormatError) as err:
            read_trajectory(path)
        assert str(err.value) == f"{path}:2: frame -1 is negative"

    def test_number_before_reader_rule_in_one_row(self, tmp_path):
        # The codec parses a row's numbers before the reader checks its
        # frame, so a row with both faults reports the number.
        path = _table_files(tmp_path)[2]
        _two_faults(path, 1)
        path.write_text(path.read_text().replace("\n0,x,", "\n-1,x,"))
        with pytest.raises(FormatError) as err:
            read_trajectory(path)
        assert str(err.value) == f"{path}:2: column 'u_px': not a number: 'x'"

    def test_short_row_of_long_integers_fails_fast(self, tmp_path):
        # Integers without a dot match the number grammar; a row of them
        # that is one column short is rejected in linear time.
        path = tmp_path / "s.csv"
        path.write_text(SENSOR_HEADER + "\n" + ",".join(["0"] + ["12345678"] * 9) + "\n")
        start = time.perf_counter()
        with pytest.raises(FormatError) as err:
            read_sensor_log(path)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == f"{path}:2: expected 11 columns, got 10"


class TestWriterBytes:
    """Every CSV writer's exact text on two rows: repr floats (signed zero,
    subnormal range), t = frame / fps, and 0/1 flags from numpy bools."""

    def test_sensor_log(self, tmp_path):
        path = tmp_path / "s.csv"
        att = [(0.5, -0.0, 1e-300), (1.0, 2.0, -3.5)]
        write_sensor_log(SensorLog([0, 1], [0 / 15, 1 / 15], [(-0.0, 1e-300, 60.0)] * 2,
                                   [(0.25, 0.0, -1e-300)] * 2, att), path)
        assert path.read_bytes() == (
            b"frame,t_s,gps_x_m,gps_y_m,gps_z_m,vx_mps,vy_mps,vz_mps,pitch_deg,yaw_deg,roll_deg\n"
            b"0,0.0,-0.0,1e-300,60.0,0.25,0.0,-1e-300,0.5,-0.0,1e-300\n"
            b"1,0.06666666666666667,-0.0,1e-300,60.0,0.25,0.0,-1e-300,1.0,2.0,-3.5\n"
        )

    def test_poses(self, tmp_path):
        path = tmp_path / "p.csv"
        poses = [CameraPose(-0.0, 1e-300, 50.0), CameraPose(1.5, -0.25, 50.1, 2.0, 91.0, -0.0)]
        write_poses(poses_of(poses), 15.0, path)
        assert path.read_bytes() == (
            b"frame,t_s,x_m,y_m,z_m,pitch_deg,yaw_deg,roll_deg\n"
            b"0,0.0,-0.0,1e-300,50.0,0.0,0.0,0.0\n"
            b"1,0.06666666666666667,1.5,-0.25,50.1,2.0,91.0,-0.0\n"
        )

    def test_trajectory(self, tmp_path):
        path = tmp_path / "t.csv"
        uv = np.array([[-0.0, 1e-300], [320.5, 1 / 15]])
        world = np.array([[1e-300, -0.0], [-2.25, 3.0]])
        write_trajectory(np.array([0, 7]), uv, world, np.array([True, False]), path)
        assert path.read_bytes() == (
            b"frame,u_px,v_px,world_x_m,world_y_m,lost_flag\n"
            b"0,-0.0,1e-300,1e-300,-0.0,1\n"
            b"7,320.5,0.06666666666666667,-2.25,3.0,0\n"
        )


class TestMasks:
    def test_byte_exact_round_trip(self, tmp_path):
        values = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        path = tmp_path / "m.pgm"
        write_mask(soft_mask(values), path)
        out = read_mask(path)
        np.testing.assert_array_equal(frame_values(out), values)

    def test_quantization_rounds_half_up(self):
        values = np.array([0.0, 1.0, 0.5, 127.4 / 255.0, 127.5 / 255.0])
        np.testing.assert_array_equal(
            quantize_mask(values), [0, 255, 128, 127, 128]
        )

    def test_binary_mask_writes_full_scale(self, tmp_path):
        bits = np.zeros((4, 4), dtype=bool)
        bits[1, 2] = True
        path = tmp_path / "b.pgm"
        write_mask(BinaryMask(bits), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        np.testing.assert_array_equal(read_binary_mask(path).bits, bits)

    def test_binary_read_matches_float_threshold_for_every_byte(self, tmp_path):
        grid = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "all.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + grid.tobytes())
        bits = read_binary_mask(path).bits
        np.testing.assert_array_equal(bits, grid.astype(float) / 255.0 >= 0.5)

    def test_binary_read_agrees_with_soft_read_at_half(self, tmp_path):
        # The binary reader and the baseline's 0.5 threshold on read_mask
        # pick the same pixels of any PGM.
        rng = np.random.default_rng(9)
        grid = rng.integers(0, 256, (12, 20), dtype=np.uint8)
        grid[:, :2] = (127, 128)
        path = tmp_path / "soft.pgm"
        path.write_bytes(b"P5\n20 12\n255\n" + grid.tobytes())
        np.testing.assert_array_equal(
            read_binary_mask(path).bits, frame_values(read_mask(path)) >= 0.5
        )

    def test_binary_write_payload_is_0_or_255(self, tmp_path):
        bits = np.random.default_rng(4).random((9, 7)) < 0.5
        for mask_bits in (bits, bits.T):
            path = tmp_path / "b.pgm"
            write_mask(BinaryMask(mask_bits), path)
            h, w = mask_bits.shape
            expected = np.where(mask_bits, 255, 0).astype(np.uint8).tobytes()
            assert path.read_bytes() == f"P5\n{w} {h}\n255\n".encode() + expected

    def test_all_zero_mask_round_trip(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_mask(soft_mask(np.zeros((4, 4))), path)
        assert not read_mask(path).inner.any()

    def test_comment_in_header_is_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made elsewhere\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        out = read_mask(path)
        assert frame_values(out)[0, 1] == 1.0
        assert frame_values(out)[1, 0] == pytest.approx(128 / 255)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(FormatError, match="bad magic"):
            read_mask(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_mask(soft_mask(np.ones((4, 4))), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            read_mask(path)

    @pytest.mark.parametrize("extra", [1, 4])  # 4: a 4x5 payload under a 4x4 header
    def test_payload_longer_than_header_rejected(self, tmp_path, extra):
        path = tmp_path / "o.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16 + extra)))
        with pytest.raises(FormatError) as err:
            read_mask(path)
        assert str(err.value) == f"{path}: byte 27: {extra} bytes after the payload"
        with pytest.raises(FormatError, match=f"{extra} bytes after the payload"):
            read_binary_mask(path)

    def test_unsupported_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n99\n\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_mask(path)

    def test_sequence_must_be_contiguous(self, tmp_path):
        for i in (0, 1, 3):
            write_mask(soft_mask(np.zeros((2, 2))), tmp_path / f"{i:06d}.pgm")
        with pytest.raises(FormatError, match="000002.pgm"):
            mask_sequence_paths(tmp_path)

    def test_sequence_reads_in_frame_order(self, tmp_path):
        for i in range(3):
            write_mask(soft_mask(np.full((2, 2), i / 255.0)), tmp_path / f"{i:06d}.pgm")
        seq = [read_mask(p) for p in mask_sequence_paths(tmp_path)]
        assert [frame_values(m)[0, 0] for m in seq] == [0.0, 1 / 255, 2 / 255]

    def test_remove_frames_from_deletes_the_contiguous_tail(self, tmp_path):
        for i in (0, 1, 2, 3, 4, 6):
            write_mask(soft_mask(np.zeros((2, 2))), tmp_path / f"{i:06d}.pgm")
        remove_frames_from(tmp_path, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "000000.pgm", "000001.pgm", "000006.pgm"
        ]
        remove_frames_from(tmp_path, 2)  # nothing stale: a no-op
        assert len(list(tmp_path.iterdir())) == 3

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no .pgm"):
            mask_sequence_paths(tmp_path)
        with pytest.raises(FormatError, match="not a directory"):
            mask_sequence_paths(tmp_path / "missing")


class TestScenarioJson:
    def test_round_trip_preserves_config(self, tmp_path):
        config = scenario_config_from_json(json.dumps(small_scenario(duration=2)))
        write_scenario(config, tmp_path)
        text = (tmp_path / "scenario.json").read_text(encoding="utf-8")
        assert text == json.dumps(dump(config), indent=2) + "\n"
        assert scenario_config_from_json(text) == config

    def test_unknown_key_rejected(self):
        doc = small_scenario()
        doc["blur"] = 1.0
        with pytest.raises(FormatError, match="blur: unknown key"):
            scenario_config_from_json(json.dumps(doc))
        doc = small_scenario()
        doc["drone"]["zoom"] = 2
        with pytest.raises(FormatError, match="drone.zoom: unknown key"):
            scenario_config_from_json(json.dumps(doc))

    def test_missing_required_key_rejected(self):
        doc = small_scenario()
        del doc["shape"]
        with pytest.raises(FormatError, match="shape: missing required"):
            scenario_config_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            scenario_config_from_json("{nope")

    def test_non_integer_duration_rejected(self):
        doc = small_scenario()
        doc["duration"] = 45.5
        with pytest.raises(FormatError, match="duration: must be an integer"):
            scenario_config_from_json(json.dumps(doc))

    def test_constraint_violations_surface_with_field_path(self):
        doc = small_scenario()
        doc["drone"]["altitude"] = 0.0
        with pytest.raises(FormatError, match="drone.altitude"):
            scenario_config_from_json(json.dumps(doc))


def _bundled(name):
    return json.loads(resources.files("swarmtrack.data").joinpath(name).read_text())


class TestConfigLoader:
    @pytest.mark.parametrize(
        "cls, doc",
        [
            (ScenarioConfig, _bundled("default_scenario.json")),
            (ScenarioConfig, _bundled("degradation_scenario.json")),
            (ScenarioConfig, small_scenario()),
            (RunConfig, _bundled("default_run.json")),
            (RunConfig, small_run_config()),
        ],
        ids=["default_scenario", "degradation_scenario", "small_scenario",
             "default_run", "small_run_config"],
    )
    def test_dump_inverts_load(self, cls, doc):
        config = load(cls, doc)
        assert load(cls, dump(config)) == config
        assert json.loads(json.dumps(dump(config))) == dump(config)

    def test_defaults_come_from_the_dataclasses(self):
        config = load(RunConfig, {"fps": 10, "focal_px": 500})
        assert config == RunConfig(fps=10.0, focal_px=500.0)
        assert type(config.fps) is float
        assert config.tracker == TrackerConfig() and config.noise == NoiseConfig()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"duration": True}, "duration: must be an integer, got True"),
            ({"fps": False}, "fps: must be a number, got False"),
            ({"fps": "15"}, "fps: must be a number, got '15'"),
            ({"fps": 10**400}, "fps: must be a number within float range"),
            ({"drone": [1]}, "drone: must be a JSON object"),
            ({"drone": {"waypoints": [[0, 0]], "altitude": 60, "yaw_mode": 1}},
             "drone.yaw_mode: must be a string, got 1"),
            ({"swarm": {"waypoints": [[0, 0, 0]]}},
             r"swarm.waypoints\[0\]: must be a list of 2"),
            ({"swarm": {"waypoints": [[0, True]]}},
             r"swarm.waypoints\[0\]\[1\]: must be a number, got True"),
            ({"swarm": {"waypoints": "none"}}, "swarm.waypoints: must be a list"),
            ({"swarm": {"waypoints": []}}, "swarm.waypoints: need at least one"),
            ({"shape": {"semi_major": 6, "semi_minor": 4, "split_frame": 1.5}},
             "shape.split_frame: must be an integer, got 1.5"),
            ({"seed": -1}, "seed: must be >= 0, got -1"),
        ],
    )
    def test_scenario_faults_name_their_key(self, edit, message):
        with pytest.raises(FormatError, match=f"^{message}"):
            load(ScenarioConfig, small_scenario(**edit))

    def test_null_optional_fields_load_as_none(self):
        doc = small_scenario(shape={"semi_major": 6, "semi_minor": 4, "split_frame": None})
        assert load(ScenarioConfig, doc).shape.split_frame is None
        doc = small_run_config(cx=None, alpha_px=None)
        config = load(RunConfig, doc)
        assert config.cx is None and config.alpha_px is None


class TestReports:
    def test_text_form_is_sorted_flat_key_values(self, tmp_path):
        report = {
            "sdr": {"r30": 97.5, "r10": 80.0},
            "frames": 900,
            "degenerate": False,
            "label": "run1",
        }
        text = write_report(report, tmp_path)
        assert text.splitlines() == [
            "degenerate=0",
            "frames=900",
            "label=run1",
            "sdr.r10=80.0",
            "sdr.r30=97.5",
        ]
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded == report

    def test_unserializable_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not serializable"):
            write_report({"bad": [1, 2]}, tmp_path)


class TestScenarioDirectory:
    def test_layout_and_determinism(self, tmp_path):
        config = scenario_config_from_json(json.dumps(small_scenario(duration=6)))
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_scenario(config, a)
        write_scenario(config, b)
        names = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
        assert names == (
            ["gt_masks/%06d.pgm" % i for i in range(6)]
            + ["gt_poses.csv", "gt_track.csv"]
            + ["masks/%06d.pgm" % i for i in range(6)]
            + ["scenario.json", "sensors.csv"]
        )
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_written_track_matches_in_memory_simulation(self, tmp_path):
        config = scenario_config_from_json(json.dumps(small_scenario(duration=6)))
        write_scenario(config, tmp_path / "out")
        scen = simulate(config)
        track = read_trajectory(tmp_path / "out" / "gt_track.csv")
        np.testing.assert_allclose(track["uv"], scen.track2d, atol=1e-12)
        for i in range(6):
            disk = read_mask(tmp_path / "out" / "masks" / f"{i:06d}.pgm")
            np.testing.assert_array_equal(
                frame_values(disk), quantize_mask(frame_values(scen.masks[i])) / 255.0
            )
