"""Span tracing applied from outside the swarmtrack package.

A ``Tracer`` replaces selected functions with wrappers that record one
span per call: name, start, end and the index of the enclosing span.
Spans are kept in memory; ``layer_metrics`` turns one iteration's spans
into per-layer totals, and ``write`` dumps them as JSON lines at the end
of a run.

The wrappers go on the names the caller looks up. ``cli.py`` imports
``alpha_shape``, ``fuse_log``, ``track_sequence`` and others by name, so
patching ``swarmtrack.shapes.alpha_shape`` alone would never see the
calls ``cmd_track`` makes; ``TARGETS`` lists ``swarmtrack.cli.alpha_shape``
instead. A refactor that moves a call elsewhere makes that span read
zero, which ``missing`` reports so the run fails rather than reading
zero silently.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). An attribute may be "Class.method".
TARGETS = [
    ("swarmtrack.cli", "cmd_simulate", "cli.simulate"),
    ("swarmtrack.cli", "cmd_track", "cli.track"),
    ("swarmtrack.cli", "cmd_eval", "cli.eval"),
    ("swarmtrack.synth", "write_scenario", "synth.write_scenario"),
    ("swarmtrack.synth", "soften", "synth.soften"),
    ("swarmtrack.synth", "degrade_mask", "synth.degrade_mask"),
    ("swarmtrack.synth", "make_gain_field", "synth.make_gain_field"),
    ("swarmtrack.synth", "generate_marker_run", "synth.generate_marker_run"),
    ("swarmtrack.io_formats", "write_mask", "io_formats.write_mask"),
    ("swarmtrack.io_formats", "read_mask", "io_formats.read_mask"),
    ("swarmtrack.io_formats", "read_binary_mask", "io_formats.read_binary_mask"),
    ("swarmtrack.io_formats", "write_sensor_log", "io_formats.csv"),
    ("swarmtrack.io_formats", "read_sensor_log", "io_formats.csv"),
    ("swarmtrack.io_formats", "write_poses", "io_formats.csv"),
    ("swarmtrack.io_formats", "read_poses", "io_formats.csv"),
    ("swarmtrack.io_formats", "write_trajectory", "io_formats.csv"),
    ("swarmtrack.io_formats", "read_trajectory", "io_formats.csv"),
    ("swarmtrack.cli", "fuse_log", "fusion.fuse_log"),
    ("swarmtrack.fusion", "fuse_log", "fusion.fuse_log"),
    ("swarmtrack.fusion", "gps_only_poses", "fusion.baselines"),
    ("swarmtrack.fusion", "dead_reckoning_poses", "fusion.baselines"),
    ("swarmtrack.tracker", "motion_between_poses", "geometry.motion_between_poses"),
    ("swarmtrack.cli", "backproject_image_to_ground", "geometry.backproject"),
    ("swarmtrack.geometry", "backproject_image_to_ground", "geometry.backproject"),
    ("swarmtrack.geometry", "backproject_pixels", "geometry.backproject"),
    ("swarmtrack.cli", "track_sequence", "tracker.track_sequence"),
    ("swarmtrack.tracker", "track_sequence", "tracker.track_sequence"),
    ("swarmtrack.tracker", "predict", "tracker.predict"),
    ("swarmtrack.tracker", "update_weights", "tracker.update_weights"),
    ("swarmtrack.tracker", "resample_roulette", "tracker.resample"),
    ("swarmtrack.cli", "alpha_shape", "shapes.alpha_shape"),
    ("swarmtrack.cli", "rasterize", "shapes.rasterize"),
    ("swarmtrack.cli", "default_alpha", "shapes.default_alpha"),
    ("swarmtrack.cli", "support_points", "shapes.support_points"),
    ("swarmtrack.metrics", "MaskScoreAccumulator.add", "metrics.mask_scores"),
    ("swarmtrack.metrics", "framewise_centroid_baseline", "metrics.framewise_baseline"),
    ("swarmtrack.cli", "sdr", "metrics.sdr"),
    ("swarmtrack.metrics", "sdr", "metrics.sdr"),
    ("swarmtrack.cli", "relative_distance_error", "metrics.relative_distance_error"),
    ("swarmtrack.metrics", "relative_distance_error", "metrics.relative_distance_error"),
]

# Spans reported as self time (span minus its child spans); every other
# span is reported inclusive, as "<name>_s".
SELF_TIMED = {
    "cli.simulate",
    "cli.track",
    "cli.eval",
    "synth.write_scenario",
    "tracker.track_sequence",
    "metrics.framewise_baseline",
}

TIMED = sorted({name for _, _, name in TARGETS})

COUNTS = [
    "shapes.outlines",
    "shapes.points_in",
    "shapes.boundary_segments",
    "shapes.failed",
    "io_formats.bytes_written",
    "io_formats.files_written",
    "io_formats.bytes_read",
    "fusion.frames",
    "tracker.frames",
    "tracker.lost_frames",
    "tracker.resamples",
    "tracker.snapshot_bytes",
]


def _count(name, attr, args, kwargs, result, counts):
    """Per-call counters, recorded at the same boundary as the span."""
    if name == "shapes.alpha_shape":
        counts["shapes.outlines"] += 1
        counts["shapes.points_in"] += len(args[0])
        counts["shapes.boundary_segments"] += len(result.boundary)
    elif name.startswith("io_formats.") and attr.startswith("write_"):
        path = kwargs["path"] if "path" in kwargs else args[-1]
        counts["io_formats.files_written"] += 1
        counts["io_formats.bytes_written"] += os.path.getsize(path)
    elif name.startswith("io_formats.") and attr.startswith("read_"):
        path = kwargs["path"] if "path" in kwargs else args[0]
        counts["io_formats.bytes_read"] += os.path.getsize(path)
    elif name == "fusion.fuse_log":
        counts["fusion.frames"] += len(result)
    elif name == "tracker.track_sequence":
        counts["tracker.frames"] += len(result.lost)
        counts["tracker.lost_frames"] += int(result.lost.sum())
        counts["tracker.snapshot_bytes"] += sum(a.nbytes for a in result.particles)
        counts["tracker.snapshot_bytes"] += sum(a.nbytes for a in result.weights)
    elif name == "tracker.resample":
        counts["tracker.resamples"] += 1


class Tracer:
    """Records spans between ``begin`` and ``end``.

    The wrappers are installed only while recording, so an untraced
    iteration runs the package's own functions with no wrapper at all.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self) -> int:
        """Install the wrappers; returns the index of the first new span."""
        from swarmtrack.shapes import ShapeError

        self.counts = defaultdict(int)
        for module_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, leaf, span_name, ShapeError))
        return len(self.spans)

    def end(self, first: int) -> dict[str, float]:
        """Restore the originals; returns per-layer metrics since ``first``."""
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()
        return layer_metrics(self.spans, first, self.counts)

    def _wrap(self, fn, attr, name, shape_error):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except shape_error:
                if name.startswith("shapes."):
                    tracer.counts["shapes.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            _count(name, attr, args, kwargs, result, tracer.counts)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(spans, first: int, counts: dict[str, int]) -> dict[str, float]:
    """Totals per span name for spans[first:], plus the counters.

    A span nested in a span of the same name (``backproject_pixels``
    inside ``backproject_image_to_ground``) is not counted twice.
    """
    inclusive: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i in range(first, len(spans)):
        name, start, end, parent = spans[i]
        duration = end - start
        calls[name] += 1
        if parent >= first:
            child_time[parent] += duration
        ancestor = parent
        while ancestor >= first and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < first:
            inclusive[name] += duration
    self_time: dict[str, float] = defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, _ = spans[i]
        if name in SELF_TIMED:
            self_time[name] += (end - start) - child_time[i]
    out: dict[str, float] = {}
    for name in TIMED:
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = self_time[name]
        else:
            out[f"{name}_s"] = inclusive[name]
        out[f"calls.{name}"] = calls[name]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    frames = out["tracker.frames"]
    out["tracker.tracked_ratio"] = (frames - out["tracker.lost_frames"]) / frames if frames else 0.0
    return out


def missing(metrics: dict[str, float], expected: list[str]) -> list[str]:
    """Expected span names that recorded zero calls."""
    return [name for name in expected if metrics.get(f"calls.{name}", 0) == 0]
