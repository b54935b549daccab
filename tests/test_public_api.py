"""Every public library function has a caller in the library itself.

A function that only its own tests reach serves no command, route or check,
yet every change must keep it working. The scan reads the source with `ast`,
so a name in a docstring or a comment is no caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorwalk"

# Public functions kept without a caller in src/, each with its reason.
UNREACHED = {
    "interpolation_coefficients": "waits for its crosscheck caller (ROADMAP item 12)",
    "gl_separation_limit": "waits for `profile --q` (ROADMAP item 6)",
    "occupancy_chain_power": "read by perfbench/checks.py",
    "qspan_chain_power": "read by perfbench/checks.py",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_functions() -> list[str]:
    """The public module-level functions of the package."""
    return [
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def names_read() -> set[str]:
    """Every name and attribute read in src/, outside `__init__.py`."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def tracer_targets() -> set[str]:
    """The attribute names written out in perfbench/tracer.py `TARGETS`."""
    tree = _tree(ROOT / "perfbench" / "tracer.py")
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return {
        node.elts[1].value
        for node in ast.walk(targets)
        if isinstance(node, ast.Tuple)
        and len(node.elts) > 1
        and isinstance(node.elts[1], ast.Constant)
    }


def test_every_public_function_has_a_library_caller():
    reached = names_read() | tracer_targets()
    unreached = sorted(name for name in public_functions() if name not in reached)
    assert unreached == sorted(UNREACHED)
