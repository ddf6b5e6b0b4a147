"""The benchmark's span tracer wraps package names by lookup, and its
workloads read package names directly; these tests keep every such name
resolvable and every wrapped one called on the paths it traces."""
import ast
import importlib
import importlib.util
import inspect
import threading
from collections import Counter
from pathlib import Path

import pytest

from swarmtrack import fusion, geometry, io_formats, synth, tracker
from tests.conftest import invoke_cli, simulate, small_run_config, small_scenario, write_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _span_targets())
def test_span_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span}) is not callable"


def _workload_reads():
    """Every dotted name workloads.py reads from a swarmtrack module it
    imports, e.g. "geometry.PixelPoint" or "geometry.Intrinsics.centered"."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "swarmtrack"
        for alias in node.names
    }
    reads = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules and parts:
            reads.add(".".join([node.id, *reversed(parts)]))
    return sorted(reads)


def test_workloads_read_package_names():
    # Direct reads that keep these names in the package; the parse must
    # see them. A benchmark change that drops one frees that name.
    assert {"geometry.PixelPoint", "metrics.Trajectory2D",
            "io_formats.scenario_config_from_json"} <= set(_workload_reads())


@pytest.mark.parametrize("dotted", _workload_reads())
def test_workload_read_resolves(dotted):
    root, *attrs = dotted.split(".")
    owner = importlib.import_module(f"swarmtrack.{root}")
    for attr in attrs:
        assert hasattr(owner, attr), f"perfbench/workloads.py reads {dotted}"
        owner = getattr(owner, attr)


def test_marker_run_keeps_defaulted_size_parameters():
    # The markers workload reports its resolution from these defaults.
    params = inspect.signature(synth.generate_marker_run).parameters
    for name in ("width", "height"):
        assert params[name].default is not inspect.Parameter.empty


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) with a call counter; returns the Counter.

    The outline stage calls its wrapped names from worker threads, so the
    counter is updated under a lock."""
    calls = Counter()
    lock = threading.Lock()
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            with lock:
                calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_pipeline_calls_mask_functions_by_name(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, (
        (synth, "soften"), (io_formats, "read_mask"), (io_formats, "write_mask"),
    ))
    cfg = write_json(tmp_path / "s.json", small_scenario(duration=6))
    run = write_json(tmp_path / "r.json", small_run_config())
    sim, trk = tmp_path / "sim", tmp_path / "trk"
    assert invoke_cli("simulate", "--config", cfg, "--out", sim) == 0
    assert calls == {"soften": 6, "write_mask": 12}
    assert invoke_cli("track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
                      "--config", run, "--out", trk) == 0
    assert calls["read_mask"] == 6 and calls["write_mask"] == 18
    assert invoke_cli("eval", "--pred", trk, "--gt", sim, "--out", tmp_path / "ev") == 0


def test_marker_run_calls_fusion_functions_by_name(monkeypatch):
    calls = _count_calls(monkeypatch, (
        (synth, "generate_marker_run"), (fusion, "fuse_log"),
        (fusion, "gps_only_poses"), (fusion, "dead_reckoning_poses"),
        (geometry, "backproject_pixels"),
    ))
    # One marker-study operation, through the names the benchmark wraps.
    run = synth.generate_marker_run(0)
    cfg = run.config
    intr = geometry.Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
    n = cfg.duration
    fused = fusion.fuse_log(run.sensor_log, cfg.noise, cfg.fps, n)
    gps = fusion.gps_only_poses(run.sensor_log, cfg.fps, n)
    dr = fusion.dead_reckoning_poses(run.sensor_log, cfg.fps, n)
    for poses in (fused, gps, dr):
        assert len(poses) == n
        for _, frame, u, v in run.sightings:
            geometry.backproject_pixels(u - intr.cx, v - intr.cy, poses[frame], intr)
    assert calls == {
        "generate_marker_run": 1, "fuse_log": 1, "gps_only_poses": 1,
        "dead_reckoning_poses": 1, "backproject_pixels": 3 * len(run.sightings),
    }
    assert len([(p.x, p.y, p.z, p.pitch, p.yaw, p.roll) for p in fused]) == n


def test_track_sequence_calls_motion_between_poses_per_frame(monkeypatch):
    calls = _count_calls(monkeypatch, ((tracker, "motion_between_poses"),))
    config = io_formats.load(synth.ScenarioConfig, small_scenario(duration=7))
    scen = simulate(config)
    cfg = tracker.TrackerConfig(n_particles=200, seed=0)
    res = tracker.track_sequence(
        scen.masks, scen.gt_poses, config.intrinsics, cfg, keep_particles=False
    )
    assert len(res.lost) == 7
    assert calls == {"motion_between_poses": 6}
