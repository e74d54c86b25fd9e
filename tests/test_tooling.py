"""Checks on the sources themselves."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crepant"


def _binds(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _reads(stmt) -> set:
    """The names a statement loads, as a name, an attribute or an import."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_private_top_level_name_has_a_reference():
    # a private name (_x) that nothing in the package reads, outside its
    # own definition, is code without callers
    stmts = [(path, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    assert stmts
    reads = [_reads(stmt) for _, stmt in stmts]
    unused = [f"{path.name}: {name}"
              for i, (path, stmt) in enumerate(stmts)
              for name in sorted(_binds(stmt))
              if name.startswith("_") and not name.startswith("__")
              and not any(name in r for j, r in enumerate(reads) if j != i)]
    assert not unused
