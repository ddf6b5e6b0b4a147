"""Where things may happen, checked on the package's syntax trees.

Every package module builds a mask from its box, ``SoftMask(inner, box,
shape)``.

Only io_formats' row reader parses the fields of a CSV table, so every
table is checked by the same rules in the same order.

Attitudes are turned into rotation rows only by geometry's one memo, which
keeps plain floats that no caller can reach; a sensor log's columns are
interpolated only by fusion's cached frame-array builder, so no caller
pays for them twice.

The outline pool in cli's ``track`` is the package's only concurrency: no
other module imports a thread module, and none registers a fork hook."""
import ast
from pathlib import Path

import pytest

import swarmtrack

PACKAGE = Path(swarmtrack.__file__).resolve().parent


# Work that is done once and kept: each name may only be called inside its
# memoized builder, module -> function.
ROTATIONS = {"_rot_x", "_rot_y", "_rot_z"}
ATTITUDE_ROWS = ("geometry.py", "_attitude_rows")
# What building an attitude takes: its key's angles, in radians, and their trig.
ATTITUDE_WORK = ROTATIONS | {"unpack", "radians", "cos", "sin"}
FRAME_BUILDER = ("fusion.py", "_frame_arrays")
# Attributes that hold a sensor log or its columns.
LOG_NAMES = {"gps", "vel", "att", "sensor_log"}


def _nodes(path):
    """(enclosing top-level function or class or None, node) of every node
    in a module."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield owner, node


def _calls(path):
    """(called name, enclosing top-level function or None, call node) of
    every call in a module."""
    out = []
    for owner, node in _nodes(path):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            out.append((name, owner, node))
    return out


def _mentions_log(call):
    return any(
        isinstance(n, ast.Attribute) and n.attr in LOG_NAMES
        or isinstance(n, ast.Name) and n.id in LOG_NAMES
        for arg in (*call.args, *(k.value for k in call.keywords))
        for n in ast.walk(arg)
    )


def test_the_parse_sees_the_builders():
    geometry = _calls(PACKAGE / ATTITUDE_ROWS[0])
    assert {name for name, owner, _ in geometry if owner == ATTITUDE_ROWS[1]} >= ROTATIONS | {
        "unpack", "radians", "lru_cache"
    }
    callers = {owner for name, owner, _ in geometry if name == ATTITUDE_ROWS[1]}
    assert callers >= {"backproject_pixels", "rotation_camera_to_world"}
    fusion = _calls(PACKAGE / FRAME_BUILDER[0])
    assert ("interp", FRAME_BUILDER[1]) in {(name, owner) for name, owner, _ in fusion}


def test_attitude_rows_are_the_only_attitude_memo():
    # Only the memo calls the rotation factors (in any module) and turns an
    # attitude into trig (module-level constants aside: other modules
    # convert angles for other reasons); it is geometry's only lru_cache;
    # and no attitude array needs a writeable flag, since the memo keeps
    # floats (the flag geometry sets is Poses' own read-only array).
    rotations = [
        (module, owner) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
        for name, owner, _ in _calls(PACKAGE / module)
        if name in ROTATIONS and (module, owner) != ATTITUDE_ROWS
    ]
    assert rotations == []
    calls = _calls(PACKAGE / ATTITUDE_ROWS[0])
    trig = [
        (name, owner) for name, owner, _ in calls
        if name in ATTITUDE_WORK and owner not in (ATTITUDE_ROWS[1], None, *ROTATIONS)
        and (name, owner) != ("sin", "_rotvec")  # half the rotation angle
    ]
    assert trig == []
    named = [
        (owner, node.id if isinstance(node, ast.Name) else node.attr)
        for owner, node in _nodes(PACKAGE / ATTITUDE_ROWS[0])
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    assert [owner for owner, name in named if name in ("lru_cache", "cache")] == [ATTITUDE_ROWS[1]]
    assert [owner for owner, name in named if name == "writeable"] == ["Poses"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_log_columns_are_interpolated_only_by_the_frame_array_builder(module):
    # fusion.py interpolates nothing else; elsewhere (synth's paths) an
    # interpolation may not name a sensor log or its columns.
    outside = [
        owner for name, owner, call in _calls(PACKAGE / module)
        if name == "interp" and (module, owner) != FRAME_BUILDER
        and (module == FRAME_BUILDER[0] or _mentions_log(call))
    ]
    assert outside == []


# The one constructor takes the box: (inner, box, shape).
MASK_ARGUMENTS = 3
ROW_PARSERS = {"_parse_float", "_parse_int"}
ROW_READER = ("io_formats.py", "_read_table")


def test_the_parse_sees_the_mask_builders_and_the_row_reader():
    builders = {
        module for module in ("io_formats.py", "synth.py")
        for name, _, _ in _calls(PACKAGE / module) if name == "SoftMask"
    }
    assert builders == {"io_formats.py", "synth.py"}
    reader = _calls(PACKAGE / ROW_READER[0])
    assert {name for name, owner, _ in reader if owner == ROW_READER[1]} >= ROW_PARSERS


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_masks_are_built_only_from_their_box(module):
    built = [
        ast.unparse(call) for name, _, call in _calls(PACKAGE / module)
        if name == "SoftMask" and len(call.args) + len(call.keywords) != MASK_ARGUMENTS
    ]
    assert built == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_csv_fields_are_parsed_only_by_the_row_reader(module):
    outside = [
        (name, owner) for name, owner, _ in _calls(PACKAGE / module)
        if name in ROW_PARSERS and (module, owner) != ROW_READER
    ]
    assert outside == []


THREAD_MODULES = {"threading", "concurrent.futures"}


def _imports(path):
    """Every module an absolute import names, dotted in full: ``from a
    import b`` names ``a`` and ``a.b``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out |= {node.module, *(f"{node.module}.{alias.name}" for alias in node.names)}
    return out


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_outline_pool_runs_threads(module):
    threads = _imports(PACKAGE / module) & THREAD_MODULES
    if module == "cli.py":
        assert "concurrent.futures" in threads  # the parse sees the pool
    else:
        assert threads == set()
    hooks = [name for name, _, _ in _calls(PACKAGE / module) if str(name).endswith("_at_fork")]
    assert hooks == []  # os's fork hooks
