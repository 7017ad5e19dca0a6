"""A bound on the number of settable values in the package.

Each option doubles the configurations that tests and benchmarks must
cover, so the count may only fall. An option is a function parameter with a
default, a dataclass field with a default, or an argparse option (an
``add_argument`` call whose first name starts with ``-``), counted over
``src/shsade_pids/*.py``.
"""

import ast
from pathlib import Path

MAX_OPTIONS = 55
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shsade_pids").glob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def options(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args
            with_default = params[len(params) - len(node.args.defaults) :]
            with_default += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            found += [f"{getattr(node, 'name', 'lambda')}({a.arg})" for a in with_default]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None and isinstance(item.target, ast.Name)
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("-")
        ):
            found.append(str(node.args[-1].value))
    return found


def test_option_count_does_not_grow():
    found = [f"{path.name}: {name}" for path in SOURCES for name in options(ast.parse(path.read_text()))]
    assert len(SOURCES) > 1
    assert len(found) <= MAX_OPTIONS, (
        f"{len(found)} options, above the bound of {MAX_OPTIONS}. Justify each new option in CHANGES.md "
        "(two callers or workloads that need different values) and raise MAX_OPTIONS with it, or make "
        "the value a constant:\n" + "\n".join(found)
    )
