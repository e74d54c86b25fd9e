"""Checks on the sources themselves."""

import ast
import re
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crepant"


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


def _schema_keys(doc: str) -> dict:
    """{path: keys} of the config schema in a docstring, path the keys
    leading to each object; a list of objects shares its object's path."""
    block = doc[doc.index("Config file schema"):doc.index("where rat is")]
    block = re.sub(r"#.*", "", block)
    keys: dict = {}
    stack: list = []
    last = None
    for m in re.finditer(r'"(\w+)"\s*:|[{}]', block):
        if m.group(0) == "{":
            stack.append(last)
            keys.setdefault(tuple(stack[1:]), set())
        elif m.group(0) == "}":
            stack.pop()
        else:
            last = m.group(1)
            keys.setdefault(tuple(stack[1:]), set()).add(last)
    return keys


def _emitted_keys(d: dict, path=(), out=None) -> dict:
    """The same map for a dict config_to_dict emits; metadata is a free
    string map, not a schema level."""
    out = {} if out is None else out
    out.setdefault(path, set()).update(d)
    for k, v in d.items():
        for item in v if isinstance(v, list) else [v]:
            if isinstance(item, dict) and k != "metadata":
                _emitted_keys(item, path + (k,), out)
    return out


def test_config_schema_in_the_docstring_matches_config_to_dict():
    # every level (top, algebra, variable, row) lists the keys the
    # serializer writes, no more and no fewer
    from crepant import BUILTIN_NAMES, builtin, config_to_dict, geometry
    doc = _schema_keys(geometry.__doc__)
    assert doc.pop(("metadata",)) == set()
    emitted: dict = {}
    for name in BUILTIN_NAMES:
        _emitted_keys(config_to_dict(builtin(name)), out=emitted)
    assert doc == emitted
    assert {p: len(k) for p, k in doc.items()} == {
        (): 9, ("algebra",): 7, ("variables",): 5, ("rows",): 2}


def test_every_imported_name_is_read():
    # an import nothing reads is dead; the package's __init__ imports only
    # to re-export
    tests = Path(__file__).resolve().parent
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "__future__":
                continue
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}: {name}" for a in n.names
                           for name in [a.asname or a.name.split(".")[0]]
                           if name not in loads]
    assert paths
    assert not unread


def test_every_parameter_is_read():
    # a parameter its function or lambda never loads is dead: delete it
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loads = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "lambda")
            unread += [f"{path.name}:{fn.lineno} {name}: {p}" for p in params
                       if p not in loads and p not in ("self", "cls")]
    assert not unread


def test_every_continuation_cache_is_documented():
    # a module-level dict in continuation.py outlives every call, so the
    # "Caches." paragraph of the module docstring must name it
    tree = ast.parse((SRC / "continuation.py").read_text(encoding="utf-8"))
    doc = ast.get_docstring(tree)
    start = doc.index("Caches.")
    end = doc.find("\n\n", start)
    paragraph = doc[start:] if end < 0 else doc[start:end]
    caches = [t.id for stmt in tree.body
              if isinstance(stmt, (ast.Assign, ast.AnnAssign))
              and isinstance(stmt.value, ast.Dict) and not stmt.value.keys
              for t in (stmt.targets if isinstance(stmt, ast.Assign)
                        else [stmt.target])
              if isinstance(t, ast.Name)]
    assert "_PAIRS" in caches
    assert [name for name in caches if name not in paragraph] == []


def test_frames_and_kernels_carry_no_z():
    # every numeric frame is at z = 1 and a sample z enters by the grading
    # alone, so no method of Frame, _Kernel or _KernelData takes or reads a
    # z: as a parameter, a name or an attribute
    tree = ast.parse((SRC / "continuation.py").read_text(encoding="utf-8"))
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    found, methods = [], 0
    for name in ("Frame", "_Kernel", "_KernelData"):
        for fn in classes[name].body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            methods += 1
            found += [f"{name}.{fn.name}:{n.lineno}" for n in ast.walk(fn)
                      if isinstance(n, ast.arg) and n.arg == "z"
                      or isinstance(n, ast.Name) and n.id == "z"
                      or isinstance(n, ast.Attribute) and n.attr == "z"]
    assert methods >= 20
    assert found == []


def test_bench_smoke_runs_every_workload():
    # the CI matrix runs each workload bench/workloads.py names, and
    # numeric-mb at seeds 0, 1 and 2, the samples that take the quadrature
    # and the default line's transferred right residues through CI
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml")
                          .read_text(encoding="utf-8"))["jobs"]
    matrix = jobs["bench-smoke"]["strategy"]["matrix"]
    runs = {(w, s) for w, s, _ in product(
        matrix["workload"], matrix["seed"], matrix["trace"])}
    runs |= {(job["workload"], job["seed"])
             for job in matrix.get("include", ())}
    tree = ast.parse((ROOT / "bench" / "workloads.py")
                     .read_text(encoding="utf-8"))
    workloads = next(ast.literal_eval(stmt.value) for stmt in tree.body
                     if isinstance(stmt, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "WORKLOADS"
                             for t in stmt.targets))
    assert "numeric-mb" in workloads
    assert set(workloads) <= {w for w, _ in runs}
    assert {0, 1, 2} <= {s for w, s in runs if w == "numeric-mb"}
