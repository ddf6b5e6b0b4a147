"""Poses and SensorLog: the array forms of pose and sensor-log sequences,
their validation, equality and CSV form."""
import math
from pathlib import Path

import numpy as np
import pytest

from swarmtrack.fusion import SensorLog
from swarmtrack.geometry import CameraPose, Poses
from swarmtrack.io_formats import (
    POSE_HEADER,
    SENSOR_HEADER,
    FormatError,
    parse_number,
    read_poses,
    read_sensor_log,
    read_trajectory,
    write_poses,
    write_sensor_log,
    write_trajectory,
)
from swarmtrack.synth import generate_marker_run

BAD = [math.nan, math.inf, -math.inf]
POSE_FIELDS = ["x", "y", "z", "pitch", "yaw", "roll"]
RECORD_FIELDS = ["t", "gps0", "gps1", "gps2", "vel0", "vel1", "vel2", "pitch", "yaw", "roll"]


def _pose_rows(n=5):
    rng = np.random.default_rng(1)
    return rng.uniform(-100.0, 100.0, (n, 6))


def _log_columns(n=5):
    """frame (n,) and the (n, 10) [t, gps, vel, pitch, yaw, roll] columns."""
    rng = np.random.default_rng(2)
    rows = [
        [i / 7.0, *rng.normal(0, 50, 3), *rng.normal(0, 2, 3), rng.uniform(-5, 5),
         rng.uniform(0, 360), rng.uniform(-5, 5)]
        for i in range(n)
    ]
    return np.arange(n), np.array(rows).reshape(n, 10)


def _log(frame, cols):
    return SensorLog(frame, cols[:, 0], cols[:, 1:4], cols[:, 4:7], cols[:, 7:])


def _message(fn, *args):
    with pytest.raises(ValueError) as e:
        fn(*args)
    return str(e.value)


def _ref_sensor_csv(log):
    """The sensor-log CSV written row by row."""
    cols = np.column_stack([log.t, log.gps, log.vel, log.att]).tolist()
    lines = [SENSOR_HEADER] + [
        ",".join([str(frame)] + [repr(float(v)) for v in row])
        for frame, row in zip(log.frame.tolist(), cols)
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
        with pytest.raises(ValueError):
            poses.array.flags.writeable = True


def _row_message(i, frame, row):
    """The non-finite message, naming row ``i`` and its fields."""
    t, g0, g1, g2, v0, v1, v2, pitch, yaw, roll = row
    return (
        f"sensor log row {i} has non-finite fields: frame={frame}, t={t!r}, "
        f"gps={(g0, g1, g2)!r}, vel={(v0, v1, v2)!r}, pitch={pitch!r}, yaw={yaw!r}, "
        f"roll={roll!r}"
    )


class TestSensorLogValidation:
    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("col", range(10), ids=RECORD_FIELDS)
    def test_non_finite_gives_the_sensor_record_message(self, col, value):
        _, cols = _log_columns()
        cols[2, col] = value
        cols[4, col] = value
        frames = np.array([10, 11, 12, 13, 14])
        want = _row_message(2, 12, cols[2].tolist())
        assert _message(_log, frames, cols) == want

    def test_non_finite_message_text(self):
        log = ([7], [0.5], [(1.0, 2.0, math.nan)], [(0.0, -0.25, 3.0)], [(1.5, 90.0, -2.0)])
        assert _message(SensorLog, *log) == (
            "sensor log row 0 has non-finite fields: frame=7, t=0.5, "
            "gps=(1.0, 2.0, nan), vel=(0.0, -0.25, 3.0), pitch=1.5, yaw=90.0, roll=-2.0"
        )

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
        log = _log(*_log_columns())
        for name in ("frame", "t", "gps", "vel", "att"):
            with pytest.raises(ValueError):
                getattr(log, name)[0] = 0
            with pytest.raises(ValueError):
                getattr(log, name).flags.writeable = True


class TestSequenceProtocol:
    """len, indexing, iteration and == of the array forms."""

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
        assert poses == Poses(rows)
        assert poses != Poses(rows[:-1]) and poses != Poses(rows[::-1])
        changed = rows.copy()
        changed[4, 5] += 1e-9
        assert poses != Poses(changed)
        assert len(Poses(np.empty((0, 6)))) == 0 and list(Poses(np.empty((0, 6)))) == []

    def test_sensor_log_equality_compares_every_column(self):
        frame, cols = _log_columns(6)
        log = _log(frame, cols)
        assert len(log) == 6
        assert log == _log(frame, cols.copy())
        assert log != _log(frame[:-1], cols[:-1]) and log != _log(frame[1:], cols[1:])
        changed = frame.copy()
        changed[3] = 99
        assert log != _log(changed, cols)
        for col in range(10):
            other = cols.copy()
            other[3, col] += 0.125
            assert log != _log(frame, other), col
        empty = np.empty((0, 3))
        assert len(SensorLog([], [], empty, empty, empty)) == 0

    def test_marker_run_arrays_match_their_elements(self):
        run = generate_marker_run(5)
        poses, log = run.gt_poses, run.sensor_log
        assert np.array_equal(
            poses.array, [[p.x, p.y, p.z, p.pitch, p.yaw, p.roll] for p in poses]
        )
        assert np.array_equal(log.frame, np.arange(len(poses)))
        assert np.array_equal(log.t, log.frame / run.config.fps)
        assert np.array_equal(log.att, poses.array[:, 3:])


# A marker run holds its attitude at 0; the random sets vary every column.
LOGS = {
    "marker-run": lambda: generate_marker_run(3).sensor_log,
    "random": lambda: _log(*_log_columns(40)),
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
        assert _first_difference(_bytes_text(a), _ref_sensor_csv(log)) is None
        back = read_sensor_log(a)
        assert back == log
        write_sensor_log(back, b)
        assert _first_difference(_bytes_text(b), _bytes_text(a)) is None

    @pytest.mark.parametrize("source", POSES)
    def test_poses_bytes_and_values(self, tmp_path, source):
        poses = POSES[source]()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_poses(poses, 15.0, a)
        assert _first_difference(_bytes_text(a), _ref_pose_csv(list(poses), 15.0)) is None
        back = read_poses(a)
        assert back == poses
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


def _write_csv(kind, path):
    """A valid file of each CSV kind, and its reader."""
    run = generate_marker_run(0)
    if kind == "sensors":
        write_sensor_log(run.sensor_log, path)
        return read_sensor_log
    if kind == "poses":
        write_poses(run.gt_poses, 15.0, path)
        return read_poses
    n = 4
    write_trajectory(range(n), np.full((n, 2), 12.5), np.full((n, 2), -3.25),
                     np.zeros(n), path)
    return read_trajectory


# float() and int() accept every one of these; none is a form repr writes.
COERCED_INTEGERS = ["1_0", "\u0663", " 3", "3 ", "3\t", "\uff13"]
COERCED_NUMBERS = ["1_0.5", "\u0663.5", " 0.5", "0.5 ", "0.5\t", "\uff11.5", "1e1_0"]


class TestNoSilentCoercion:
    @pytest.mark.parametrize("kind", ["sensors", "poses", "trajectory"])
    @pytest.mark.parametrize("text", COERCED_INTEGERS)
    def test_frame_must_be_plain_ascii_digits(self, tmp_path, kind, text):
        path = tmp_path / f"{kind}.csv"
        reader = _write_csv(kind, path)
        _corrupt(path, 3, 0, text)
        with pytest.raises(FormatError) as e:
            reader(path)
        assert str(e.value) == f"{path}:3: column 'frame': not an integer: {text!r}"

    @pytest.mark.parametrize("kind", ["sensors", "poses", "trajectory"])
    @pytest.mark.parametrize("text", COERCED_NUMBERS)
    def test_number_must_be_plain_ascii_decimal(self, tmp_path, kind, text):
        path = tmp_path / f"{kind}.csv"
        reader = _write_csv(kind, path)
        column = path.read_text().split("\n")[0].split(",")[2]
        _corrupt(path, 4, 2, text)
        with pytest.raises(FormatError) as e:
            reader(path)
        assert str(e.value) == f"{path}:4: column {column!r}: not a number: {text!r}"

    @pytest.mark.parametrize("kind", ["sensors", "poses", "trajectory"])
    def test_crlf_line_endings_rejected(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        reader = _write_csv(kind, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(FormatError) as e:
            reader(path)
        assert str(e.value) == f"{path}:1: carriage return; lines must end with LF alone"

    @pytest.mark.parametrize("kind", ["sensors", "poses", "trajectory"])
    def test_carriage_return_in_a_field_names_its_line(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        reader = _write_csv(kind, path)
        _corrupt(path, 3, 0, "3\r")
        assert path.read_bytes().count(b"\r") == 1
        with pytest.raises(FormatError) as e:
            reader(path)
        assert str(e.value) == f"{path}:3: carriage return; lines must end with LF alone"

    def test_every_repr_form_parses_back_exactly(self):
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, 1.7976931348623157e308, 1e16,
                  *rng.normal(0, 1e3, 50).tolist(), *(10.0 ** rng.uniform(-30, 30, 50)).tolist()]
        for v in values:
            assert math.copysign(1, parse_number(repr(v))) == math.copysign(1, v)
            assert parse_number(repr(v)) == v
        for text in ("inf", "-inf", "nan", "NaN", "Infinity", "+1", ".5", "5.", "1E5"):
            assert parse_number(text) == float(text) or math.isnan(float(text))
