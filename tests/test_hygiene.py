"""Static checks over the source and test trees.

No linter is a dependency, so these checks are AST scans here, where the
fast `-m "not acceptance"` loop runs them.
"""

import ast
from pathlib import Path

from gridsentry.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # package __init__ modules import names to re-export them
    paths = sorted(path for tree in ("src", "tests")
                   for path in (ROOT / tree).rglob("*.py")
                   if path.name != "__init__.py")
    assert paths
    unused = {str(path.relative_to(ROOT)): names for path in paths
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_no_test_only_public_names():
    # a public function or class that no code in src/ reads is there only
    # for its tests; such oracles live in tests/oracles.py. Package
    # __init__ re-exports do not count as reads.
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "__init__.py"}
    assert trees
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{path}:{node.name}" for path, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in read)
    assert unread == []


def test_every_config_field_is_read():
    # a RunConfig field that only load_config reads is a key the config
    # accepts and validates but nothing acts on
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "load_config"):
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    assert sorted(set(RunConfig.__dataclass_fields__) - read) == []
