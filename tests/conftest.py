"""Shared test helpers: in-process CLI runner, small scenario configs and
full-frame soft masks."""
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from swarmtrack import synth
from swarmtrack.cli import main as cli_main
from swarmtrack.geometry import Poses
from swarmtrack.tracker import SoftMask, nonzero_box


def invoke_cli(*argv) -> int:
    """Run the CLI in process. argparse exits are folded into the code."""
    try:
        return cli_main([str(a) for a in argv])
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0


@pytest.fixture
def run_cli(capsys):
    """In-process CLI runner returning (exit_code, stdout, stderr)."""

    def run(*argv):
        code = invoke_cli(*argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def small_scenario(**overrides) -> dict:
    """A 3 second hover over a static blob; renders in well under a second."""
    cfg = {
        "duration": 45,
        "fps": 15.0,
        "width": 320,
        "height": 180,
        "focal_px": 350.0,
        "drone": {"waypoints": [[0.0, 0.0]], "altitude": 60.0, "speed": 1.5},
        "swarm": {"waypoints": [[0.0, 0.0]], "speed": 0.0},
        "shape": {"semi_major": 6.0, "semi_minor": 4.0},
        "mask_softness": 1.5,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def small_run_config(**overrides) -> dict:
    cfg = {
        "fps": 15.0,
        "focal_px": 350.0,
        "tracker": {"n_particles": 500, "motion_noise_sigma": 5.0, "seed": 0},
        "alpha_px": 8.0,
    }
    cfg.update(overrides)
    return cfg


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def traced_peak(fn, *args):
    """(peak bytes that tracemalloc saw while fn(*args) ran, its result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def poses_of(poses) -> Poses:
    """The Poses of a list of CameraPose."""
    rows = [(p.x, p.y, p.z, p.pitch, p.yaw, p.roll) for p in poses]
    return Poses(np.array(rows, dtype=float).reshape(-1, 6))


def simulate(config) -> SimpleNamespace:
    """A scenario held in memory, from the generator write_scenario writes.

    Fields: sensor_log, gt_poses, world (n, 2) centroids in m, masks
    (unquantized SoftMask), gt_masks (BinaryMask) and track2d (n, 2)
    corner-origin px.
    """
    log, poses, world, frames = synth._simulate(config)
    masks, gt_masks, track2d = (list(c) for c in zip(*frames))
    return SimpleNamespace(
        sensor_log=log, gt_poses=poses, world=world, masks=masks, gt_masks=gt_masks,
        track2d=np.array(track2d),
    )


def soft_mask(values) -> SoftMask:
    """The SoftMask of a full-frame array, boxed to its nonzeros by
    nonzero_box (which holds every NaN and out-of-range value too)."""
    values = np.asarray(values, dtype=float)
    box = nonzero_box(values)
    return SoftMask(values[box], box, values.shape)


def frame_values(mask: SoftMask) -> np.ndarray:
    """The full frame a mask stands for: its box's values, 0.0 elsewhere."""
    out = np.zeros(mask.shape)
    out[mask.box] = mask.inner
    return out
