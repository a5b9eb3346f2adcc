"""Options audit: every parameter of a sigmagap function is read by its
body, and every defaulted parameter is set by at least one call.

The source of ``src/sigmagap`` is parsed with ``ast``; calls are collected
from ``src``, ``tests`` and ``perfbench`` and matched to definitions by
name.  A call sets a parameter when it passes it by keyword, by position,
or as a key of a ``**`` dict literal (directly, or through a loop variable
that runs over dict literals).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sigmagap"
CALLER_DIRS = (SRC, ROOT / "tests", ROOT / "perfbench")

# (module, function, parameter) -> why the audit lets it stand
ALLOWED_UNREAD = {}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(module, qualname, FunctionDef, positional offset) for every module
    function and method in src/sigmagap.  Functions nested in a function
    are its implementation (their defaults bind loop variables), so they
    are left out."""
    out = []

    def visit(node, module, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                offset = 1 if in_class and not static else 0
                out.append((module, prefix + child.name, child, offset))
            else:
                visit(child, module, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(_parse(path), path.stem, "", False)
    return out


def _named_params(fn):
    a = fn.args
    return a.posonlyargs + a.args + a.kwonlyargs


def _defaulted(fn):
    """Names of the parameters that carry a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return names


def _dict_keys(node):
    return {k.value for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def _calls():
    """callee name -> list of (positional count, keyword names)."""
    calls = {}
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            tree = _parse(path)
            # loop variables that run over dict literals: for d in ({...}, ...)
            loop_keys = {}
            for node in ast.walk(tree):
                if (isinstance(node, ast.For)
                        and isinstance(node.target, ast.Name)
                        and isinstance(node.iter, (ast.Tuple, ast.List))
                        and all(isinstance(e, ast.Dict)
                                for e in node.iter.elts)):
                    keys = set().union(*(_dict_keys(e)
                                         for e in node.iter.elts))
                    loop_keys.setdefault(node.target.id, set()).update(keys)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                npos = sum(not isinstance(a, ast.Starred) for a in node.args)
                kws = set()
                for kw in node.keywords:
                    if kw.arg is not None:
                        kws.add(kw.arg)
                    elif isinstance(kw.value, ast.Dict):
                        kws |= _dict_keys(kw.value)
                    elif isinstance(kw.value, ast.Name):
                        kws |= loop_keys.get(kw.value.id, set())
                calls.setdefault(name, []).append((npos, kws))
    return calls


def _reads(fn, name):
    return any(isinstance(n, ast.Name) and n.id == name
               and isinstance(n.ctx, ast.Load)
               for stmt in fn.body for n in ast.walk(stmt))


def unread_parameters():
    out = []
    for module, qual, fn, _ in _definitions():
        for p in _named_params(fn):
            if not _reads(fn, p.arg):
                out.append((module, qual, p.arg))
    return out


def defaulted_parameters():
    """[(module, qualname, parameter, set by some call)] over src/sigmagap."""
    calls = _calls()
    out = []
    for module, qual, fn, offset in _definitions():
        positional = [p.arg for p in fn.args.posonlyargs + fn.args.args]
        short = qual.rsplit(".", 1)[-1]
        for name in _defaulted(fn):
            pos = positional.index(name) - offset if name in positional \
                else None
            used = any(name in kws or (pos is not None and npos > pos)
                       for npos, kws in calls.get(short, ()))
            out.append((module, qual, name, used))
    return out


def test_every_parameter_is_read():
    unread = [u for u in unread_parameters() if u not in ALLOWED_UNREAD]
    assert not unread, f"parameters their function never reads: {unread}"


def test_every_default_is_set_by_a_caller():
    unset = [(m, q, p) for m, q, p, used in defaulted_parameters()
             if not used]
    assert not unset, f"defaulted parameters no call sets: {unset}"


def test_allowlist_is_current():
    """An allowlist entry whose finding is gone must be dropped."""
    assert set(ALLOWED_UNREAD) <= set(unread_parameters())
