"""The benchmark's span tracer wraps package names by lookup; these tests
keep every name it wraps resolvable and called on the paths it traces."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from swarmtrack import io_formats, synth
from tests.conftest import invoke_cli, small_run_config, small_scenario, write_json

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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


def test_pipeline_calls_mask_functions_by_name(tmp_path, monkeypatch):
    calls = Counter()
    for owner, name in ((synth, "soften"), (io_formats, "read_mask"),
                        (io_formats, "write_mask")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    cfg = write_json(tmp_path / "s.json", small_scenario(duration=6))
    run = write_json(tmp_path / "r.json", small_run_config())
    sim, trk = tmp_path / "sim", tmp_path / "trk"
    assert invoke_cli("simulate", "--config", cfg, "--out", sim) == 0
    assert calls == {"soften": 6, "write_mask": 12}
    assert invoke_cli("track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
                      "--config", run, "--out", trk) == 0
    assert calls["read_mask"] == 6 and calls["write_mask"] == 18
    assert invoke_cli("eval", "--pred", trk, "--gt", sim, "--out", tmp_path / "ev") == 0
