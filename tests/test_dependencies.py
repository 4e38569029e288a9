"""The package imports nothing outside the standard library but NumPy, and
only `dataset` knows the WindowSet frame-table layout and checks array shapes.

pyproject.toml declares `dependencies = ["numpy>=2.0"]`; a stray import of
anything else would break an install that follows that declaration.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spikelane as sl

_PROBE = """
import sys
before = set(sys.modules)
import spikelane, spikelane.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print("\\n".join(sorted(loaded)))
"""


def test_imports_only_stdlib_and_numpy():
    # a fresh interpreter: this test process has pytest and its plugins loaded
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert {"numpy", "spikelane"} <= loaded
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "spikelane"}


def _nodes_outside_dataset():
    """(module file name, AST node) for every node of every module but dataset.py."""
    for path in sorted(Path(sl.__file__).parent.glob("*.py")):
        if path.name != "dataset.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


_LAYOUT = {"frames", "starts", "steps"}


def test_only_dataset_reads_the_frame_table_layout():
    # other modules gather windows through WindowSet.take, so the layout can change in one place
    readers = [f"{name}:{node.lineno} .{node.attr}" for name, node in _nodes_outside_dataset()
               if isinstance(node, ast.Attribute) and node.attr in _LAYOUT]
    assert readers == []


def _reads_shape(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "shape" for n in ast.walk(node))


def test_only_dataset_checks_array_shapes():
    # other modules pass the expected shape to dataset's cast helpers, so every
    # wrong shape is one ShapeError with one message
    checks = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside_dataset()
        if isinstance(node, ast.Attribute) and node.attr == "ndim"
        or isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq))
                                                 for op in node.ops)
        and any(map(_reads_shape, [node.left, *node.comparators]))
    ]
    assert checks == []
