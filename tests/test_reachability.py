"""Every top-level function, class and constant in ``src/bfmix``, and every
method, property and classmethod defined in a class body there, is read by
the program: ``src/``, ``scripts/`` or ``perfbench/`` names it, as an
``ast.Name`` or an ``ast.Attribute``, outside its own definition or
assignment.  Tests do not count, so a helper, a method or a constant that
only tests read fails here.  Dunder methods are exempt, as Python calls
them; so is ``odeint``'s tableau (``C2``, ``A21``, ``B1``, ``BHH1``,
``ER1``, ...), which ``odeint._row`` reads through ``globals()``.  Class
fields are out of reach of a name check: names such as ``omega0`` are read
everywhere."""
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


def _methods(tree: ast.Module) -> list:
    """(class name, function) of each function defined in a class body of
    ``tree``, dunders left out."""
    return [(cls.name, node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for part in ("src", "scripts", "perfbench")
         for path in sorted((ROOT / part).rglob("*.py"))}
READS = sum((_names(tree) for tree in TREES.values()), Counter())


def test_every_top_level_definition_is_read():
    unread = [f"{path.name}:{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in TREES[path].body
              for name in _defined(node)
              if READS[name] == _names(node)[name]
              and not (path.name == "odeint.py" and TABLEAU.fullmatch(name))]
    assert unread == []


def test_every_method_is_read():
    unread = [f"{path.name}:{cls}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, node in _methods(TREES[path])
              if READS[node.name] == _names(node)[node.name]]
    assert unread == []
