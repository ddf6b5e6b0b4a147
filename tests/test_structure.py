"""Only tracker.py knows how a SoftMask stores its values: the box plus a
one-pixel ring of zeros. Every other package module builds a mask from
its box with SoftMask.from_box and reads ``box`` and ``inner``."""
import ast
from pathlib import Path

import pytest

import swarmtrack

PACKAGE = Path(swarmtrack.__file__).resolve().parent
STORAGE_NAMES = {"_ring_box", "ring_box", "_from_block", "_block", "_ring"}


def _names(path):
    """Every identifier a module names: variables, attributes, imports
    and definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
            names.add(node.name.split(".")[-1])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_parse_sees_the_storage_names_in_tracker():
    assert STORAGE_NAMES - {"ring_box", "_from_block"} <= _names(PACKAGE / "tracker.py")


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "tracker.py")
)
def test_no_other_module_names_the_mask_storage(module):
    assert not _names(PACKAGE / module) & STORAGE_NAMES
