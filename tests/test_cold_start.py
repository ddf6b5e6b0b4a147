"""Which scipy subpackages each entry point loads, in a fresh interpreter.

scipy.spatial and scipy.ndimage are imported inside the functions that
use them, so a marker run, `fuse`, `project` and `eval` start without
either; `simulate` loads only scipy.ndimage and `track` only
scipy.spatial (the Delaunay triangulation of the outlines). The tracker
itself converts camera rotations without scipy, so a degradation-study
pass (read, degrade, track) loads only scipy.ndimage. Each case runs in
its own subprocess, because the test process itself has long since
imported both.
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import swarmtrack
from tests.conftest import small_run_config, small_scenario, write_json

SRC = str(Path(swarmtrack.__file__).resolve().parents[1])
N_FRAMES = 8

# The prologue and epilogue of every case: print the watched subpackages
# that the body left in sys.modules.
_REPORT = """
import json, sys
sys.path.insert(0, {src!r})
{body}
print(json.dumps(sorted(m for m in ("scipy.ndimage", "scipy.spatial") if m in sys.modules)))
"""

_CLI = """
from swarmtrack import cli
cli.usable_cpus = lambda: 2  # two outline threads in track
assert cli.main(sys.argv[1:]) == 0
"""

_MARKER_RUN = """
import numpy as np
from swarmtrack import fusion, geometry, metrics, synth
run = synth.generate_marker_run(0)
cfg = run.config
intr = geometry.Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
n = cfg.duration
for poses in (
    fusion.fuse_log(run.sensor_log, cfg.noise, cfg.fps, n),
    fusion.gps_only_poses(run.sensor_log, cfg.fps, n),
    fusion.dead_reckoning_poses(run.sensor_log, cfg.fps, n),
):
    est = np.zeros((len(run.markers), 2))
    for idx, frame, u, v in run.sightings:
        est[idx] = geometry.backproject_pixels(u - intr.cx, v - intr.cy, poses[frame], intr)
    metrics.relative_distance_error(est, run.markers[:, :2])
"""

# One pass of the degradation study over a simulated scenario: masks read
# from disk, blurred and dimmed, then tracked.
_DEGRADATION_PASS = """
from pathlib import Path
import numpy as np
from swarmtrack import fusion, io_formats, synth, tracker
sim = Path(sys.argv[1])
scen = io_formats.scenario_config_from_json((sim / "scenario.json").read_text())
log = io_formats.read_sensor_log(sim / "sensors.csv")
poses = fusion.fuse_log(log, scen.noise, scen.fps, scen.duration)
gain = synth.make_gain_field(scen.width, scen.height, 1.0, 150.0, np.random.default_rng(0))
masks = (
    synth.degrade_mask(io_formats.read_mask(path), blur_sigma=4.0, gain=gain)
    for path in io_formats.mask_sequence_paths(sim / "masks")
)
cfg = tracker.TrackerConfig(n_particles=200, seed=0)
res = tracker.track_sequence(masks, poses, scen.intrinsics, cfg, keep_particles=False)
assert len(res.centroids) == scen.duration > 1
"""


def _loaded(body: str, *argv) -> list[str]:
    """The watched scipy subpackages a fresh interpreter holds after ``body``."""
    script = _REPORT.format(src=SRC, body=textwrap.dedent(body))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A simulated scenario and its track run, made in another process."""
    root = tmp_path_factory.mktemp("cold-start")
    scenario = write_json(root / "scenario.json", small_scenario(duration=N_FRAMES))
    run = write_json(root / "run.json", small_run_config())
    sim, track = root / "sim", root / "track"
    _loaded(_CLI, "simulate", "--config", scenario, "--out", sim)
    _loaded(_CLI, "track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
            "--config", run, "--out", track)
    return root, sim, track


def test_importing_the_package_and_cli_loads_neither():
    assert _loaded("import swarmtrack, swarmtrack.cli") == []


def test_marker_run_loads_neither():
    assert _loaded(_MARKER_RUN) == []


@pytest.mark.parametrize("command", ["fuse", "project", "eval"])
def test_fuse_project_and_eval_load_neither(runs, command):
    root, sim, track = runs
    argv = {
        "fuse": ["--sensors", sim / "sensors.csv", "--fps", 15.0],
        "project": ["--trajectory", sim / "gt_track.csv", "--poses", sim / "gt_poses.csv",
                    "--focal", 350.0, "--width", 320, "--height", 180],
        "eval": ["--pred", track, "--gt", sim],
    }[command]
    assert _loaded(_CLI, command, *argv, "--out", root / command) == []


def test_simulate_loads_only_ndimage(tmp_path):
    scenario = write_json(tmp_path / "scenario.json", small_scenario(duration=N_FRAMES))
    assert _loaded(_CLI, "simulate", "--config", scenario, "--out", tmp_path / "sim") == [
        "scipy.ndimage"
    ]


def test_degradation_pass_loads_only_ndimage(runs):
    _, sim, _ = runs
    assert _loaded(_DEGRADATION_PASS, sim) == ["scipy.ndimage"]


def test_track_with_two_outline_threads_loads_only_spatial(runs, tmp_path):
    # The outlines import Delaunay on pool threads; Python's per-module
    # import lock keeps that safe.
    root, sim, _ = runs
    argv = ["track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
            "--config", root / "run.json", "--out", tmp_path / "track"]
    assert _loaded(_CLI, *argv) == ["scipy.spatial"]
    assert len(list((tmp_path / "track" / "shapes").glob("*.pgm"))) == N_FRAMES
