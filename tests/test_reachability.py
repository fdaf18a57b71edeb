"""Every top-level function and class in ``src/bfmix`` is read by the
program: ``src/``, ``scripts/`` or ``perfbench/`` names it, as an
``ast.Name`` or an ``ast.Attribute``, outside its own definition.  Tests do
not count, so a helper that only tests call fails here.  Module constants
are out of scope: ``odeint`` reads its tableau through ``globals()``."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bfmix"


def _names(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for part in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / part).rglob("*.py"))}
    reads = sum((_names(tree) for tree in trees.values()), Counter())
    unread = [f"{path.name}:{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and reads[node.name] == _names(node)[node.name]]
    assert unread == []
