"""Every public library function and method has a caller outside the tests.

A function that only its own tests reach serves no command, route or check,
yet every change must keep it working. A caller is a read of the name in the
library itself, in the benchmark's output checks (`perfbench/checks.py`) or
in the benchmark's traced `TARGETS`. The scan reads the source with `ast`,
so a name in a docstring or a comment is no caller. A function is read as
a bare name or as an attribute. A method is read only as an attribute,
`x.name`, so a local variable of the same name hides no unreached method;
in the source a method is still matched by name alone, so any read of
`.name` counts as a call of every method so named.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorwalk"

# Public functions and methods kept without a caller, each with its reason.
UNREACHED = {
    "interpolation_coefficients": "waits for its crosscheck caller (ROADMAP item 12)",
    "gl_separation_limit": "waits for `profile --q` (ROADMAP item 6)",
    "separation_routes": "the S_n route set at one r in the library API; commands step"
    " `separations_by_route` over r",
    "fixed_point_character_sum": "the fixed point character sum at one i in the library API;"
    " crosscheck reads every i of a shape through `fixed_point_character_sums`",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_public(node) -> bool:
    return not node.name.startswith("_")


def public_callables() -> dict[str, tuple[str, bool]]:
    """The public module-level functions and the public methods of public
    classes, keyed by their qualified name, with the name a caller reads and
    whether it is a method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and _is_public(node):
                found[node.name] = (node.name, False)
            elif isinstance(node, ast.ClassDef) and _is_public(node):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and _is_public(method):
                        found[f"{node.name}.{method.name}"] = (method.name, True)
    return found


def names_read() -> tuple[set[str], set[str]]:
    """The bare names and the attribute names read in src/ outside
    `__init__.py`, and in perfbench/checks.py."""
    paths = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    names, attributes = set(), set()
    for path in [*paths, ROOT / "perfbench" / "checks.py"]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def tracer_targets() -> set[str]:
    """The attribute names written out in perfbench/tracer.py `TARGETS`,
    qualified by their class for a method."""
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
    names, attributes = names_read()
    traced = tracer_targets()
    unreached = sorted(
        qualified
        for qualified, (name, is_method) in public_callables().items()
        if name not in attributes
        and (is_method or name not in names)
        and qualified not in traced
    )
    assert unreached == sorted(UNREACHED)
