"""Poses and SensorLog: the array forms of pose and sensor-log sequences
agree with the CameraPose and SensorRecord lists they replace."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from swarmtrack.fusion import SensorLog, SensorRecord
from swarmtrack.geometry import CameraPose, Poses
from swarmtrack.io_formats import (
    POSE_HEADER,
    SENSOR_HEADER,
    FormatError,
    read_poses,
    read_sensor_log,
    write_poses,
    write_sensor_log,
)
from swarmtrack.synth import generate_marker_run

BAD = [math.nan, math.inf, -math.inf]
POSE_FIELDS = ["x", "y", "z", "pitch", "yaw", "roll"]
RECORD_FIELDS = ["t", "gps0", "gps1", "gps2", "vel0", "vel1", "vel2", "pitch", "yaw", "roll"]


def _pose_rows(n=5):
    rng = np.random.default_rng(1)
    return rng.uniform(-100.0, 100.0, (n, 6))


def _records(n=5):
    rng = np.random.default_rng(2)
    return [
        SensorRecord(
            frame=i, t=i / 7.0,
            gps=tuple(rng.normal(0, 50, 3).tolist()), vel=tuple(rng.normal(0, 2, 3).tolist()),
            pitch=float(rng.uniform(-5, 5)), yaw=float(rng.uniform(0, 360)),
            roll=float(rng.uniform(-5, 5)),
        )
        for i in range(n)
    ]


def _message(fn, *args):
    with pytest.raises(ValueError) as e:
        fn(*args)
    return str(e.value)


def _ref_sensor_csv(records):
    """The sensor-log CSV written record by record."""
    lines = [SENSOR_HEADER] + [
        ",".join([str(r.frame)] + [repr(float(v)) for v in (
            r.t, *r.gps, *r.vel, r.pitch, r.yaw, r.roll
        )])
        for r in records
    ]
    return "\n".join(lines) + "\n"


def _bytes_text(path: Path) -> str:
    """The file's bytes as text, with no newline translation."""
    return path.read_bytes().decode("ascii")


def _first_difference(got: str, want: str):
    """(line number, got, wanted) at the first differing line, or None.

    A short failure message: pytest's own diff of two long texts can
    take minutes.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return i, g, w
    if len(got_lines) != len(want_lines):
        return "line counts", len(got_lines), len(want_lines)
    return None


def _ref_pose_csv(poses, fps):
    """The pose CSV written pose by pose."""
    lines = [POSE_HEADER] + [
        ",".join([str(i), repr(i / fps)] + [repr(float(v)) for v in (
            p.x, p.y, p.z, p.pitch, p.yaw, p.roll
        )])
        for i, p in enumerate(poses)
    ]
    return "\n".join(lines) + "\n"


class TestPosesValidation:
    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("col", range(6), ids=POSE_FIELDS)
    def test_non_finite_gives_the_camera_pose_message(self, col, value):
        rows = _pose_rows()
        rows[3, col] = value
        rows[4, (col + 1) % 6] = value  # the first bad row is named
        assert _message(Poses, rows) == _message(CameraPose, *rows[3].tolist())

    @pytest.mark.parametrize("shape", [(6,), (0,), (3, 5), (2, 7), (2, 6, 1), ()])
    def test_shape_must_be_n_by_6(self, shape):
        with pytest.raises(ValueError, match=r"expected an \(n, 6\) pose array"):
            Poses(np.zeros(shape))

    def test_array_is_a_read_only_copy(self):
        rows = _pose_rows()
        poses = Poses(rows)
        rows[0, 0] = 1e6
        assert poses.array[0, 0] != 1e6
        with pytest.raises(ValueError):
            poses.array[0, 0] = 0.0


class TestSensorLogValidation:
    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("col", range(10), ids=RECORD_FIELDS)
    def test_non_finite_gives_the_sensor_record_message(self, col, value):
        cols = np.array([(r.t, *r.gps, *r.vel, r.pitch, r.yaw, r.roll) for r in _records()])
        cols[2, col] = value
        cols[4, col] = value
        frames = [10, 11, 12, 13, 14]
        want = _message(
            SensorRecord, 12, cols[2, 0].item(), tuple(cols[2, 1:4].tolist()),
            tuple(cols[2, 4:7].tolist()), *cols[2, 7:].tolist(),
        )
        got = _message(SensorLog, frames, cols[:, 0], cols[:, 1:4], cols[:, 4:7], cols[:, 7:])
        assert got == want

    @pytest.mark.parametrize(
        "shapes",
        [((5,), (4,), (5, 3), (5, 3), (5, 3)), ((5,), (5,), (5, 2), (5, 3), (5, 3)),
         ((5,), (5,), (5, 3), (4, 3), (5, 3)), ((5,), (5,), (5, 3), (5, 3), (5,)),
         ((5, 1), (5,), (5, 3), (5, 3), (5, 3))],
    )
    def test_column_shapes_must_agree(self, shapes):
        with pytest.raises(ValueError, match="sensor log arrays must be"):
            SensorLog(*(np.zeros(s) for s in shapes))

    def test_arrays_are_read_only(self):
        log = SensorLog.from_records(_records())
        for name in ("frame", "t", "gps", "vel", "att"):
            with pytest.raises(ValueError):
                getattr(log, name)[0] = 0


class TestSequenceProtocol:
    """len, indexing, iteration and == agree with the list they replace."""

    def test_poses_behave_like_the_camera_pose_list(self):
        rows = _pose_rows(7)
        ref = [CameraPose(*r) for r in rows.tolist()]
        poses = Poses(rows)
        assert len(poses) == len(ref) == 7
        assert list(poses) == ref
        for i in [0, 3, 6, -1, -7, np.int64(2)]:
            assert poses[i] == ref[i]
            assert all(type(v) is float for v in vars(poses[i]).values())
        for i in [7, -8]:
            with pytest.raises(IndexError):
                poses[i]
        assert poses == ref and ref == poses and poses == Poses(rows)
        assert poses != ref[:-1] and poses != ref[::-1]
        changed = rows.copy()
        changed[4, 5] += 1e-9
        assert poses != Poses(changed) and Poses(changed) != ref
        assert len(Poses(np.empty((0, 6)))) == 0 and list(Poses(np.empty((0, 6)))) == []

    def test_sensor_log_behaves_like_the_record_list(self):
        ref = _records(6)
        log = SensorLog.from_records(ref)
        assert len(log) == len(ref) == 6
        assert list(log) == ref
        for i in [0, 2, 5, -1, -6]:
            rec = log[i]
            assert rec == ref[i]
            assert type(rec.frame) is int and type(rec.t) is float
            assert type(rec.gps) is tuple and type(rec.vel) is tuple
        with pytest.raises(IndexError):
            log[6]
        assert log == ref and ref == log and log == SensorLog.from_records(ref)
        assert log != ref[:-1] and log != SensorLog.from_records(ref[1:])
        changes = {
            "frame": 99, "t": ref[3].t + 1e-9, "gps": (1.0, 2.0, 3.0), "vel": (1.0, 2.0, 3.0),
            "pitch": 0.125, "yaw": 0.125, "roll": 0.125,
        }
        for name, value in changes.items():
            other = list(ref)
            other[3] = dataclasses.replace(ref[3], **{name: value})
            assert log != other and log != SensorLog.from_records(other), name
        assert len(SensorLog.from_records([])) == 0

    def test_marker_run_arrays_match_their_elements(self):
        run = generate_marker_run(5)
        poses, log = run.gt_poses, run.sensor_log
        assert np.array_equal(
            poses.array, [[p.x, p.y, p.z, p.pitch, p.yaw, p.roll] for p in poses]
        )
        assert np.array_equal(log.frame, [r.frame for r in log])
        assert np.array_equal(log.t, [r.t for r in log])
        assert np.array_equal(log.gps, [r.gps for r in log])
        assert np.array_equal(log.vel, [r.vel for r in log])
        assert np.array_equal(log.att, [(r.pitch, r.yaw, r.roll) for r in log])
        assert np.array_equal(log.att, poses.array[:, 3:])


# A marker run holds its attitude at 0; the random sets vary every column.
LOGS = {
    "marker-run": lambda: generate_marker_run(3).sensor_log,
    "random": lambda: SensorLog.from_records(_records(40)),
}
POSES = {
    "marker-run": lambda: generate_marker_run(3).gt_poses,
    "random": lambda: Poses(_pose_rows(40)),
}


class TestCsvRoundTrip:
    @pytest.mark.parametrize("source", LOGS)
    def test_sensor_log_bytes_and_values(self, tmp_path, source):
        log = LOGS[source]()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sensor_log(log, a)
        assert _first_difference(_bytes_text(a), _ref_sensor_csv(list(log))) is None
        back = read_sensor_log(a)
        assert back == log and back == list(log)
        write_sensor_log(back, b)
        assert _first_difference(_bytes_text(b), _bytes_text(a)) is None

    @pytest.mark.parametrize("source", POSES)
    def test_poses_bytes_and_values(self, tmp_path, source):
        poses = POSES[source]()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_poses(poses, 15.0, a)
        assert _first_difference(_bytes_text(a), _ref_pose_csv(list(poses), 15.0)) is None
        back = read_poses(a)
        assert back == poses and back == list(poses)
        write_poses(back, 15.0, b)
        assert _first_difference(_bytes_text(b), _bytes_text(a)) is None


def _corrupt(path: Path, line: int, column: int, text: str) -> None:
    lines = path.read_text().split("\n")
    fields = lines[line - 1].split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines))


class TestReaderMessages:
    """Each message names the file, the line and the column, as before."""

    @pytest.mark.parametrize(
        "line, column, text, message",
        [
            (3, 0, "x", "{p}:3: column 'frame': not an integer: 'x'"),
            (4, 1, "soon", "{p}:4: column 't_s': not a number: 'soon'"),
            (2, 6, "nan", "{p}:2: column 'vy_mps': non-finite value"),
            (5, 10, "-inf", "{p}:5: column 'roll_deg': non-finite value"),
            (4, 1, "0.05", "{p}:4: time 0.05 does not increase over previous 0.06666666666666667"),
        ],
    )
    def test_sensor_log(self, tmp_path, line, column, text, message):
        path = tmp_path / "sensors.csv"
        write_sensor_log(generate_marker_run(0).sensor_log, path)
        _corrupt(path, line, column, text)
        with pytest.raises(FormatError) as e:
            read_sensor_log(path)
        assert str(e.value) == message.format(p=path)

    @pytest.mark.parametrize(
        "line, column, text, message",
        [
            (3, 0, "7", "{p}:3: frame 7, expected consecutive 1"),
            (2, 0, "zero", "{p}:2: column 'frame': not an integer: 'zero'"),
            (4, 1, "later", "{p}:4: column 't_s': not a number: 'later'"),
            (5, 4, "inf", "{p}:5: column 'z_m': non-finite value"),
            (6, 7, "NaN", "{p}:6: column 'roll_deg': non-finite value"),
        ],
    )
    def test_poses(self, tmp_path, line, column, text, message):
        path = tmp_path / "poses.csv"
        write_poses(generate_marker_run(0).gt_poses, 15.0, path)
        _corrupt(path, line, column, text)
        with pytest.raises(FormatError) as e:
            read_poses(path)
        assert str(e.value) == message.format(p=path)
