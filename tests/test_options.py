"""Options and caller audits of the sigmagap source.

Options: every parameter of a sigmagap function is read by its body, and
every defaulted parameter is set by at least one call in ``src`` or
``perfbench``, so no option exists for the tests alone.  Its mirror image
has two rules.  Rule A: no defaulted parameter is set by every program
call, so no default is taken by the tests alone; such a parameter becomes
required, or a constant.  Rule B: every defaulted dataclass field is set
by at least one program construction (by the class's name, ``cls(...)``
in its body, or ``dataclasses.replace``); a field no program sets becomes
a constant or ``init=False``.  The count of defaulted parameters is
recorded (DEFAULTED_PARAMETERS): a change that adds an option raises it
and names the two callers that need different values.  Callers: every
public function, method and property is named somewhere in ``src`` or
``perfbench`` outside its own body, so no src code is kept alive by its
own test alone.

The source of ``src/sigmagap`` is parsed with ``ast``; calls are collected
from ``src`` and ``perfbench`` (a call in ``tests`` does not count) and
matched to definitions by name.  A call sets a parameter or field when it
passes it by keyword, by position, or as a key of a ``**`` dict literal
(directly, or through a loop variable that runs over dict literals).  A
``*`` argument counts as every position and any other ``**`` argument as
every name, so ``RunConfig(**values)`` sets every field.

Determinants: ``slogdet`` is named in ``src/sigmagap`` only by
``operators.log_det_n_matrix``, the one matrix route of log det_n, and by
``covariance.component_log_z``, a positivity-checked log Z that is no
det_n; so a hand-rolled slogdet-plus-traces copy cannot come back.

Lattice layout: ``repeat``, the widening of per-square values to sites,
is named in ``src/sigmagap`` only inside ``regions.LatticeGeometry``, so
a second copy of the square -> site map cannot come back.

BLAS pools: no ``src/sigmagap`` module but ``twopoint`` imports
``scipy.linalg`` or reads it as ``scipy.linalg``.  numpy and scipy each
load their own OpenBLAS with its own thread pool, and the two contend when
one process alternates between them, so the parent process's dense linear
algebra is numpy's; the sampler's per-sample loop is scipy's alone.

Dependencies: every third-party package that ``src/sigmagap`` imports,
at module level or inside a function, is declared in ``pyproject.toml``'s
``[project].dependencies``, and every declared package is imported.

Matching by name is approximate.  The caller audit counts any variable or
attribute of the same name as a use of a module function, but only an
attribute access (``x.name``) as a use of a method or property, so a local
variable that shares a member's name does not keep it alive.  A dotted
string such as ``"covariance.build_Cgamma"`` in ``perfbench`` (the names
it traces) counts as an attribute access of its last part.  So a method
that shares its name with another object's, as a ``trace`` method would
with ``np.trace``, passes unseen.
"""

import ast
import collections
import math
import pathlib
import re
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sigmagap"
USER_DIRS = (SRC, ROOT / "perfbench")

# (module, function, parameter) -> why the audit lets it stand
ALLOWED_UNREAD = {
    ("forests", "exponential_partial", "edges"):
        "exp(sum x) is its own mixed partial over every edge set; the "
        "parameter is the signature verify_forest_formula calls",
}

# (module, qualname) -> why it stays with tests as its only callers
ALLOWED_TEST_ONLY = {
    ("twopoint", "resolvent_matrix"):
        "dense-solve route the tests hold the sampler's resolvent to",
    ("twopoint", "sample_weight"):
        "eigenvalue route the tests hold the sampler's weight to",
    ("regions", "large_field_suppression"):
        "paper estimate whose test is its only gate",
    ("kernels", "cutoff_momentum_integral"):
        "paper estimate whose test is its only gate",
    ("operators", "D_decomposition"):
        "paper estimate whose test is its only gate",
    ("operators", "link_block"):
        "paper estimate whose test is its only gate",
    ("regions", "LatticeGeometry.site_coordinates"):
        "the tests' reference for site positions",
}


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


def _public_definitions():
    """(module, qualname, FunctionDef) for every module function, method
    and property of src/sigmagap whose name and class name are public."""
    return [(module, qual, fn) for module, qual, fn, _ in _definitions()
            if not any(part.startswith("_") for part in qual.split("."))]


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _names(tree, strings=False):
    """(name, is an attribute) for the variable and attribute names in
    tree; with strings, also (last part, True) for every dotted-name
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield node.value.rsplit(".", 1)[-1], True


def uncalled_definitions():
    """[(module, qualname)] of the public definitions that nothing in src
    or perfbench names outside their own body: a module function by any
    name, a method or property by an attribute only."""
    named = collections.Counter()
    for root in USER_DIRS:
        for path in sorted(root.rglob("*.py")):
            named.update(_names(_parse(path), strings=root != SRC))
    out = []
    for module, qual, fn in _public_definitions():
        short = qual.rsplit(".", 1)[-1]
        kinds = (True,) if "." in qual else (False, True)
        own = collections.Counter(_names(fn))
        if sum(named[short, k] - own[short, k] for k in kinds) <= 0:
            out.append((module, qual))
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
    """callee name -> list of (positional count, keyword names) over the
    calls in src and perfbench.  A ``*`` argument counts as every
    position, and a ``**`` argument whose keys are unknown makes the
    keyword names None, every name; ``cls(...)`` in a class body counts
    as a call of the class."""
    calls = {}
    for root in USER_DIRS:
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
            owners = {}  # call node -> name of the innermost enclosing class
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    owners.update((node, cls.name) for node in ast.walk(cls))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name == "cls" and node in owners:
                    name = owners[node]
                if name is None:
                    continue
                npos = (math.inf if any(isinstance(a, ast.Starred)
                                        for a in node.args)
                        else len(node.args))
                kws = set()
                for kw in node.keywords:
                    if kw.arg is not None:
                        kws.add(kw.arg)
                    elif isinstance(kw.value, ast.Dict):
                        kws |= _dict_keys(kw.value)
                    elif (isinstance(kw.value, ast.Name)
                          and kw.value.id in loop_keys):
                        kws |= loop_keys[kw.value.id]
                    else:
                        kws = None
                        break
                calls.setdefault(name, []).append((npos, kws))
    return calls


def _passes(call, name, pos):
    """Whether a (positional count, keyword names) call sets the
    parameter or field name at position pos (None: keyword only)."""
    npos, kws = call
    return kws is None or name in kws or (pos is not None and npos > pos)


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
    """[(module, qualname, parameter, its position in a call or None,
    the src and perfbench calls of the function)] over the defaulted
    parameters of src/sigmagap."""
    calls = _calls()
    out = []
    for module, qual, fn, offset in _definitions():
        positional = [p.arg for p in fn.args.posonlyargs + fn.args.args]
        short = qual.rsplit(".", 1)[-1]
        for name in _defaulted(fn):
            pos = positional.index(name) - offset if name in positional \
                else None
            out.append((module, qual, name, pos, calls.get(short, [])))
    return out


def unset_defaults():
    """Defaulted parameters that no program call sets."""
    return [(m, q, p) for m, q, p, pos, sites in defaulted_parameters()
            if not any(_passes(c, p, pos) for c in sites)]


def always_set_defaults():
    """Rule A: defaulted parameters that every program call sets, so only
    the tests take the default."""
    return [(m, q, p) for m, q, p, pos, sites in defaulted_parameters()
            if sites and all(_passes(c, p, pos) for c in sites)]


def _is_dataclass_decorator(node):
    node = node.func if isinstance(node, ast.Call) else node
    return (isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass")


def _field_call(value):
    """The dataclasses.field(...) call of a field's value, else None."""
    if isinstance(value, ast.Call):
        func = value.func
        name = (func.id if isinstance(func, ast.Name) else
                getattr(func, "attr", None))
        if name == "field":
            return value
    return None


def dataclass_fields():
    """[(module, class, field, position, defaulted)] over the __init__
    fields of the dataclasses in src/sigmagap."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not (isinstance(cls, ast.ClassDef) and any(
                    map(_is_dataclass_decorator, cls.decorator_list))):
                continue
            pos = 0
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)) \
                        or "ClassVar" in ast.unparse(stmt.annotation):
                    continue
                call = _field_call(stmt.value)
                kws = {kw.arg: kw.value for kw in getattr(call, "keywords",
                                                          ())}
                init = kws.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                defaulted = stmt.value is not None and (
                    call is None or "default" in kws
                    or "default_factory" in kws)
                out.append((path.stem, cls.name, stmt.target.id, pos,
                            defaulted))
                pos += 1
    return out


def unset_fields():
    """Rule B: defaulted dataclass fields that no program construction
    sets, by the class's name, by cls(...) or by dataclasses.replace."""
    calls = _calls()
    replaced = [(0, kws) for _, kws in calls.get("replace", [])]
    return [(m, cls, name) for m, cls, name, pos, defaulted
            in dataclass_fields()
            if defaulted and not any(_passes(c, name, pos) for c in
                                     calls.get(cls, []) + replaced)]


# (module, qualname, parameter) -> why every program call may set it
ALLOWED_ALWAYS_SET = {
    ("regions", "classify_squares", "geometry"):
        "perfbench/worker.py passes it by position, always the field's "
        "geometry; to be deleted, not made required, once perfbench may "
        "change",
    ("regions", "build_regions", "geometry"):
        "perfbench/worker.py passes it by position, always the "
        "assignment's geometry; to be deleted, not made required, once "
        "perfbench may change",
}

# (module, class, field) -> why no program construction sets it
ALLOWED_UNSET_FIELDS = {}

# defaulted parameters in src/sigmagap (the ratchet: it may only fall)
DEFAULTED_PARAMETERS = 16


def test_every_parameter_is_read():
    unread = [u for u in unread_parameters() if u not in ALLOWED_UNREAD]
    assert not unread, f"parameters their function never reads: {unread}"


def test_every_default_is_set_by_a_caller():
    unset = unset_defaults()
    assert not unset, f"defaulted parameters no program call sets: {unset}"


def test_allowlist_is_current():
    """An allowlist entry whose finding is gone must be dropped."""
    assert set(ALLOWED_UNREAD) <= set(unread_parameters())


def test_no_default_only_the_tests_take():
    """Rule A."""
    found = [d for d in always_set_defaults() if d not in ALLOWED_ALWAYS_SET]
    assert not found, f"defaulted parameters every program call sets: {found}"


def test_always_set_allowlist_is_current():
    assert set(ALLOWED_ALWAYS_SET) <= set(always_set_defaults())


def test_every_field_default_is_set_by_a_construction():
    """Rule B."""
    found = [f for f in unset_fields() if f not in ALLOWED_UNSET_FIELDS]
    assert not found, f"dataclass defaults no program construction sets: " \
        f"{found}"


def test_unset_field_allowlist_is_current():
    assert set(ALLOWED_UNSET_FIELDS) <= set(unset_fields())


def test_defaulted_parameter_count_does_not_grow():
    count = len(defaulted_parameters())
    assert count <= DEFAULTED_PARAMETERS, (
        f"{count} defaulted parameters, {DEFAULTED_PARAMETERS} on record: a "
        "new option raises the record and names the two program callers "
        "that need different values")
    assert count == DEFAULTED_PARAMETERS, (
        f"lower DEFAULTED_PARAMETERS to {count}")


def test_every_definition_has_a_caller():
    orphans = [d for d in uncalled_definitions()
               if d not in ALLOWED_TEST_ONLY]
    assert not orphans, f"src code only tests call: {orphans}"


def test_test_only_allowlist_is_current():
    """An allowlisted definition that gained a caller or is gone must be
    dropped from ALLOWED_TEST_ONLY."""
    assert set(ALLOWED_TEST_ONLY) <= set(uncalled_definitions())


def test_audits_report_test_only_uses(tmp_path, monkeypatch):
    """Negative control on a toy tree: a default that only a test file
    sets, a default that only a test file takes, a dataclass default
    that only a test file sets, and a property whose name only a local
    variable shares, are each reported; a field set through replace or
    an unread ** mapping, and an init=False field, are not."""
    src, bench, tests = (tmp_path / "src" / "sigmagap",
                         tmp_path / "perfbench", tmp_path / "tests")
    files = {
        src / "toy.py": """
            import dataclasses


            class Box:
                @property
                def side(self):
                    return 2.0


            @dataclasses.dataclass
            class Crate:
                width: float
                depth: float = 1.0
                height: float = 1.0
                label: str = dataclasses.field(default="", init=False)


            @dataclasses.dataclass
            class Shelf:
                rows: int = 1


            def area(side, scale=1.0):
                return scale * side * side


            def volume(side, depth=1.0):
                return side * side * depth
            """,
        bench / "run.py": """
            import dataclasses

            from sigmagap.toy import Crate, Shelf, area, volume

            values = {"rows": 2}
            print(area(3.0), volume(3.0, 2.0), volume(1.0, depth=0.5))
            print(dataclasses.replace(Crate(1.0), depth=2.0), Shelf(**values))
            """,
        tests / "test_toy.py": """
            from sigmagap.toy import Box, Crate, area, volume


            def test_area():
                assert area(Box().side, scale=2.0) == 8.0
                assert volume(2.0) == 4.0
                assert Crate(1.0, height=2.0).height == 2.0
            """,
    }
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    audit = sys.modules[__name__]
    monkeypatch.setattr(audit, "SRC", src)
    monkeypatch.setattr(audit, "USER_DIRS", (src, bench))
    assert unset_defaults() == [("toy", "area", "scale")]
    assert always_set_defaults() == [("toy", "volume", "depth")]
    assert unset_fields() == [("toy", "Crate", "height")]
    assert uncalled_definitions() == [("toy", "Box.side")]


# (module, qualname) -> why it may call slogdet
ALLOWED_SLOGDET = {
    ("operators", "log_det_n_matrix"): "the matrix route of log det_n",
    ("covariance", "component_log_z"):
        "log Z from a determinant whose sign it checks; not a det_n",
}


def _mentions(tree, name):
    """Names, attributes, imports and definitions in tree called name."""
    return sum(name in (getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None),
                        getattr(node, "asname", None))
               for node in ast.walk(tree))


def users(name):
    """(module, qualname) of every src/sigmagap function or method that
    names name, and (module, None) for a use outside all of them."""
    out = set()
    definitions = _definitions()
    for path in sorted(SRC.glob("*.py")):
        inside = 0
        for module, qual, fn, _ in definitions:
            count = _mentions(fn, name) if module == path.stem else 0
            if count:
                out.add((module, qual))
                inside += count
        if _mentions(_parse(path), name) > inside:
            out.add((path.stem, None))
    return out


def test_slogdet_only_in_the_matrix_route():
    assert users("slogdet") == set(ALLOWED_SLOGDET)


def test_widening_only_in_the_lattice_geometry():
    found = users("repeat")
    assert found, "the square -> site widening is gone"
    assert all(module == "regions" and qual is not None
               and qual.startswith("LatticeGeometry.")
               for module, qual in found), found


def imported_packages():
    """Top-level names of the third-party packages src/sigmagap imports."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                out |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out - set(sys.stdlib_module_names) - {"sigmagap"}


def declared_dependencies():
    """Package names of pyproject.toml's [project].dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def test_imports_match_declared_dependencies():
    imported, declared = imported_packages(), declared_dependencies()
    assert imported - declared == set(), "imported but not declared"
    assert declared - imported == set(), "declared but never imported"


def uses_scipy_linalg(tree):
    """True when tree imports scipy.linalg (or a submodule of it), in any
    form, or reads it as the attribute scipy.linalg."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["scipy", "linalg"]
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = node.module.split(".")
            if parts[:2] == ["scipy", "linalg"] or (
                    parts == ["scipy"]
                    and any(a.name == "linalg" for a in node.names)):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name)
              and node.value.id == "scipy"):
            return True
    return False


def test_only_the_sampler_uses_scipy_linalg():
    found = {path.stem for path in SRC.glob("*.py")
             if uses_scipy_linalg(_parse(path))}
    assert found == {"twopoint"}


@pytest.mark.parametrize("source, uses", [
    ("import scipy.linalg", True), ("import scipy.linalg as sl", True),
    ("from scipy.linalg import cho_factor", True),
    ("from scipy import linalg", True),
    ("from scipy.linalg.lapack import dpotrf", True),
    ("import scipy\nscipy.linalg.eigh(a, b)", True),
    ("import numpy as np\nimport scipy\nnp.linalg.eigh(a)", False)])
def test_scipy_linalg_audit_sees_every_form(source, uses):
    assert uses_scipy_linalg(ast.parse(source)) == uses
