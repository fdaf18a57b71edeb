"""Every top-level function, class and constant in ``src/bfmix`` is read by
the program: ``src/``, ``scripts/`` or ``perfbench/`` names it, as an
``ast.Name`` or an ``ast.Attribute``, outside its own definition or
assignment.  Tests do not count, so a helper or a constant that only tests
read fails here.  The one exemption is ``odeint``'s tableau (``C2``,
``A21``, ``B1``, ``BHH1``, ``ER1``, ...), which ``odeint._row`` reads through
``globals()``."""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bfmix"
TABLEAU = re.compile(r"(C|A|B|BHH|ER)\d+")


def _names(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def _defined(node: ast.stmt) -> list:
    """The names a top-level statement defines: its function or class, or
    the names its assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def test_every_top_level_definition_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for part in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / part).rglob("*.py"))}
    reads = sum((_names(tree) for tree in trees.values()), Counter())
    unread = [f"{path.name}:{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in trees[path].body
              for name in _defined(node)
              if reads[name] == _names(node)[name]
              and not (path.name == "odeint.py" and TABLEAU.fullmatch(name))]
    assert unread == []
