"""The outline stage of `track` runs its frames on a thread pool sized by
`cli.usable_cpus`; its output must not depend on the pool size, and a
failing frame must stop the command cleanly."""
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from swarmtrack import cli, io_formats
from swarmtrack.shapes import ShapeError
from tests.conftest import invoke_cli, small_run_config, small_scenario, write_json

N_FRAMES = 8
LOST_FRAME = 2
SHAPE_ERROR_FRAME = 5
# A fixed outline alpha, and none: each frame then derives its own.
ALPHAS = (8.0, None)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A short simulated run whose frame 2 mask is all zero (a lost frame)."""
    root = tmp_path_factory.mktemp("outline_pool")
    cfg = write_json(root / "s.json", small_scenario(duration=N_FRAMES))
    runs = {
        alpha: write_json(root / f"r-{alpha}.json", small_run_config(alpha_px=alpha))
        for alpha in ALPHAS
    }
    sim = root / "sim"
    assert invoke_cli("simulate", "--config", cfg, "--out", sim) == 0
    empty = sim / "masks" / f"{LOST_FRAME:06d}.pgm"
    mask = io_formats.read_mask(empty)
    h, w = mask.shape
    empty.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + bytes(w * h))
    return sim, runs


def _patch_pool(monkeypatch, cpus):
    """Fix the pool size; make frame 5's cloud collinear, so its outline
    raises ShapeError; count the ShapeErrors the outlines raised."""
    seen = {"shape_errors": 0}
    lock = threading.Lock()
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    real_track, real_alpha = cli.track_sequence, cli.alpha_shape

    def track(*args, **kwargs):
        result = real_track(*args, **kwargs)
        n = len(result.particles[SHAPE_ERROR_FRAME])
        result.particles[SHAPE_ERROR_FRAME] = np.column_stack(
            [np.linspace(20.0, 200.0, n), np.full(n, 90.0)]
        )
        return result

    def alpha(*args, **kwargs):
        try:
            return real_alpha(*args, **kwargs)
        except ShapeError:
            with lock:
                seen["shape_errors"] += 1
            raise

    monkeypatch.setattr(cli, "track_sequence", track)
    monkeypatch.setattr(cli, "alpha_shape", alpha)
    return seen


def _track(scenario, out, alpha=8.0):
    sim, runs = scenario
    return invoke_cli("track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
                      "--config", runs[alpha], "--out", out)


def _outputs(out: Path) -> dict[str, bytes]:
    files = sorted((out / "shapes").iterdir()) + [out / "trajectory.csv"]
    return {f.name: f.read_bytes() for f in files}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_outputs_do_not_depend_on_the_pool_size(scenario, tmp_path, monkeypatch, alpha):
    outputs = {}
    interval = sys.getswitchinterval()
    for cpus in (1, 2, 3):
        with monkeypatch.context() as m:
            seen = _patch_pool(m, cpus)
            # Switch threads often, so frames interleave as much as they can.
            sys.setswitchinterval(1e-6)
            try:
                assert _track(scenario, tmp_path / f"trk{cpus}", alpha) == 0
            finally:
                sys.setswitchinterval(interval)
        assert seen["shape_errors"] == 1
        outputs[cpus] = _outputs(tmp_path / f"trk{cpus}")
    assert outputs[1] == outputs[2] == outputs[3]
    assert len(outputs[1]) == N_FRAMES + 1
    traj = io_formats.read_trajectory(tmp_path / "trk1" / "trajectory.csv")
    assert traj["lost"].tolist() == [t == LOST_FRAME for t in range(N_FRAMES)]
    for t in range(N_FRAMES):
        bits = io_formats.read_binary_mask(tmp_path / "trk1" / "shapes" / f"{t:06d}.pgm").bits
        assert bits.any() == (t not in (LOST_FRAME, SHAPE_ERROR_FRAME))


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_write_stops_the_command_in_frame_order(scenario, tmp_path, monkeypatch, capsys, cpus):
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    out = tmp_path / "trk"
    for t in (4, 6):
        (out / "shapes" / f"{t:06d}.pgm").mkdir(parents=True)
    threads_before = threading.active_count()
    code = _track(scenario, out)
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert code == 1 and len(errors) == 1 and "000004.pgm" in errors[0]
    assert "Traceback" not in err
    assert not (out / "trajectory.csv").exists()
    assert threading.active_count() == threads_before
    # Every frame before the failing one was written; later frames may
    # have been written too, by threads that had already started them.
    written = {f.name for f in (out / "shapes").iterdir() if f.is_file()}
    assert {f"{t:06d}.pgm" for t in range(4)} <= written
    assert written <= {f"{t:06d}.pgm" for t in (0, 1, 2, 3, 5, 7)}


def test_usable_cpus_counts_the_affinity_set_and_never_less_than_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli.usable_cpus() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
    assert cli.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli.usable_cpus() == 3
