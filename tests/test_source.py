"""Static checks on the package source."""

import ast
import builtins
import dataclasses
import importlib
import pathlib
import re

import pytest

import qmgm

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmgm"
README = SOURCE.parent.parent / "README.md"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unread_imports(tree: ast.Module) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unread_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from .core import A, B as C\n"
                     "def f():\n    import sys\n    return np.zeros(A)\n")
    assert unread_imports(tree) == [(2, "os"), (4, "C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def import_time_imports(tree: ast.Module, package: str) -> list:
    """(line, module) of every import of ``package`` or one of its
    submodules that runs when the module is imported: anywhere but inside
    a function body (class bodies and top-level blocks run at import)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
            visit(child)

    visit(tree)
    return [(line, module) for line, module in found
            if module.split(".")[0] == package]


def test_import_time_imports_are_found():
    tree = ast.parse("import scipy.special as sp\nimport scipyx\n"
                     "from scipy import special\nfrom . import scipy\n"
                     "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
                     "class K:\n    from scipy.special import expit\n"
                     "    def m(self):\n        import scipy.stats\n"
                     "def f():\n    from scipy.special import xlogy\n"
                     "g = lambda: __import__('scipy')\n")
    assert import_time_imports(tree, "scipy") == [
        (1, "scipy.special"), (3, "scipy"), (6, "scipy.linalg"), (10, "scipy.special")]


def test_scipy_is_imported_only_inside_functions():
    # importing scipy.special costs a fresh process about 200 ms and 26 MB;
    # `qmgm fit` calls none of it, so only the functions that use it load it
    found = {p.name: import_time_imports(ast.parse(p.read_text(encoding="utf-8")), "scipy")
             for p in sorted(SOURCE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unnamed_public_defs(trees: dict) -> list:
    """Top-level public functions and classes, and public methods of
    top-level classes, of the modules in ``trees`` (file name -> parsed
    source) that no module names: not read, not an attribute, not imported
    (so an export in ``__init__.py`` counts).  A method is reported as
    ``Class.method``."""
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name)
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            found += [(file, qualname) for qualname, name in defs
                      if not name.startswith("_") and name not in named]
    return sorted(found)


def test_unnamed_public_defs_are_found():
    trees = {"a.py": ast.parse("class Used:\n    pass\n"
                               "class Lone:\n    pass\n"
                               "def exported():\n    pass\n"
                               "def _private():\n    pass\n"
                               "def called():\n    return Used()\n"
                               "def orphan():\n    def inner():\n        pass\n"
                               "class Host:\n"
                               "    def read(self):\n        return self.size\n"
                               "    @property\n    def size(self):\n        return 1\n"
                               "    @classmethod\n    def spare(cls):\n        pass\n"
                               "    def _hidden(self):\n        pass\n"),
             "b.py": ast.parse("import a\nfrom .a import exported\n"
                               "def g():\n    return a.called(), a.Host().read()\n")}
    assert unnamed_public_defs(trees) == [("a.py", "Host.spare"), ("a.py", "Lone"),
                                          ("a.py", "orphan"), ("b.py", "g")]


def test_every_public_def_is_named_in_the_package():
    # a library function that only tests call belongs in the tests
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    assert unnamed_public_defs(trees) == []


# Defaulted parameters that no call in the package sets, kept on purpose:
# only the two seams through which the tests drive the package.
UNSET_DEFAULTS_ALLOWED = {
    ("cli.py", "main", "argv"): "None reads sys.argv; the tests pass their own argv",
    ("benchmark.py", "run_replications", "sample_fn"):
        "the generator by default; the tests swap in edge-case samples",
}


def _callee_names(func) -> set:
    """Names a call's function expression may resolve to: f(...), obj.f(...)
    and (f if c else g)(...)."""
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.IfExp):
        return _callee_names(func.body) | _callee_names(func.orelse)
    return set()


def _defaulted_params(tree: ast.Module):
    """(qualified name, name, positional offset, {defaulted parameter:
    positional index, or None for keyword-only}) of every function and
    method with a default.  A method called on an object or class binds
    its first parameter, so its call arguments start one position later:
    that is the offset."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                offset = 1 if in_class and not static else 0
                defaulted = {x: i for i, x in enumerate(positional)
                             if i >= len(positional) - len(a.defaults)}
                defaulted.update({x.arg: None for x, d in zip(a.kwonlyargs, a.kw_defaults)
                                  if d is not None})
                if defaulted:
                    out.append((f"{prefix}{node.name}", node.name, offset, defaulted))
                visit(node.body, f"{prefix}{node.name}.", False)

    visit(tree.body, "", False)
    return out


def unset_defaults(trees: dict) -> list:
    """(file, function, parameter) for every defaulted parameter of a
    function or method in ``trees`` (file name -> parsed source) that no
    call in ``trees`` passes, by keyword or by position.  A call that
    splats ``*args`` or ``**kwargs`` counts as passing every parameter."""
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                for name in _callee_names(n.func):
                    calls.setdefault(name, []).append(n)
    found = []
    for file, tree in trees.items():
        for qualname, name, offset, defaulted in _defaulted_params(tree):
            for param, index in defaulted.items():
                def sets(call):
                    if any(isinstance(a, ast.Starred) for a in call.args):
                        return True
                    if any(k.arg is None or k.arg == param for k in call.keywords):
                        return True
                    return index is not None and len(call.args) > index - offset
                if not any(sets(call) for call in calls.get(name, [])):
                    found.append((file, qualname, param))
    return sorted(found)


def test_unset_defaults_are_found():
    trees = {"a.py": ast.parse("def f(x, y=1, *, z=2):\n    pass\n"
                               "class C:\n    def m(self, u=0, v=0):\n        pass\n"
                               "    @staticmethod\n    def s(w=0):\n        pass\n"
                               "def g(q=0):\n    pass\n"
                               "def h(r=0):\n    pass\n"),
             "b.py": ast.parse("f(0, 5)\nC().m(1)\nC.s(3)\n"
                               "(g if t else h)(q=1)\nf(*xs)\n")}
    assert unset_defaults(trees) == [("a.py", "C.m", "v"), ("a.py", "h", "r")]


def test_every_default_is_set_in_the_package():
    # an option that only tests set is an option production never uses
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    unset = [key for key in unset_defaults(trees) if key not in UNSET_DEFAULTS_ALLOWED]
    assert unset == []
    assert set(UNSET_DEFAULTS_ALLOWED) <= set(unset_defaults(trees))


def unresolved_names(text: str) -> list:
    """Backticked dotted names in ``text`` led by ``qmgm``, one of its
    modules or a name it exports, whose later parts name nothing: each part
    must be an attribute of the one before, or a field of a dataclass."""
    for path in MODULES:
        importlib.import_module(f"qmgm.{path.stem}")
    heads = {name for name in vars(qmgm) if not name.startswith("_")}
    field = object()
    found = []
    for dotted in re.findall(r"`(\w+(?:\.\w+)+)`", text):
        parts = dotted.split(".")
        if parts[0] not in heads | {"qmgm"}:
            continue
        obj = qmgm
        for part in parts[parts[0] == "qmgm":]:
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
                obj = field
            else:
                found.append(dotted)
                break
    return found


def test_unresolved_names_are_found():
    text = ("`qmgm.lasso`, `qmgm.core.NoSuch`, `core.MAX_THRESHOLDS` and "
            "`CoefficientCube.no_such` or `CoefficientCube.betas`; "
            "`BenchmarkRun.tolerance`, `BenchmarkRun.tolerance.real`, "
            "`np.mean`, `summary.csv`, `qmgm` and `lasso`")
    assert unresolved_names(text) == ["qmgm.core.NoSuch", "CoefficientCube.no_such",
                                      "BenchmarkRun.tolerance.real"]


def test_readme_names_resolve():
    # a README that names a removed function or record misleads its reader
    assert unresolved_names(README.read_text(encoding="utf-8")) == []


def _names_of(node) -> set:
    """Class names a raise or base-class expression names: E, E(...) or m.E."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def unraised_exceptions(trees: dict) -> list:
    """(file, class) for every exception class defined in ``trees`` (file
    name -> parsed source) that no ``raise`` in ``trees`` raises.  A class is
    an exception class when a base is a builtin exception or another
    exception class of ``trees``."""
    classes = [(file, node) for file, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    grown = True
    while grown:
        found = {node.name for _, node in classes
                 if any(_names_of(base) & exceptions for base in node.bases)}
        grown = not found <= exceptions
        exceptions |= found
    raised = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise) and n.exc is not None:
                raised |= _names_of(n.exc)
    return sorted((file, node.name) for file, node in classes
                  if node.name in exceptions and node.name not in raised)


def test_unraised_exceptions_are_found():
    trees = {"a.py": ast.parse("class AError(ValueError):\n    pass\n"
                               "class BError(AError):\n    pass\n"
                               "class Lone(RuntimeError):\n    pass\n"
                               "class Plain:\n    pass\n"
                               "def f():\n    raise AError('x')\n"),
             "b.py": ast.parse("import a\ndef g():\n    raise a.BError\n"
                               "class Unused(a.AError):\n    pass\n")}
    assert unraised_exceptions(trees) == [("a.py", "Lone"), ("b.py", "Unused")]


def test_every_exception_class_is_raised_in_the_package():
    # an error class that only tests raise belongs in the tests
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    assert unraised_exceptions(trees) == []


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and _names_of(d.func) == {"dataclass"}
               and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in d.keywords)
               for d in node.decorator_list)


def undeclared_frozen_attributes(trees: dict) -> list:
    """(file, class, attribute) for every ``object.__setattr__`` in a frozen
    dataclass of ``trees`` (file name -> parsed source) that sets no
    declared field.  The attribute is a string constant or a loop variable
    over a literal tuple or list of them; any other name expression is
    reported as ``?``."""
    found = []
    for file, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_frozen_dataclass(cls)):
                continue
            fields = {n.target.id for n in cls.body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
            loops = {n.target.id: [e.value for e in n.iter.elts]
                     for n in ast.walk(cls)
                     if isinstance(n, ast.For) and isinstance(n.target, ast.Name)
                     and isinstance(n.iter, (ast.Tuple, ast.List))
                     and all(isinstance(e, ast.Constant) for e in n.iter.elts)}
            for n in ast.walk(cls):
                if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "__setattr__" and _names_of(n.func.value) == {"object"}
                        and len(n.args) >= 2):
                    continue
                name = n.args[1]
                if isinstance(name, ast.Constant):
                    names = [name.value]
                elif isinstance(name, ast.Name) and name.id in loops:
                    names = loops[name.id]
                else:
                    names = ["?"]
                found += [(file, cls.name, attr) for attr in names if attr not in fields]
    return sorted(found)


def test_undeclared_frozen_attributes_are_found():
    trees = {"a.py": ast.parse(
        "@dataclass(frozen=True, eq=False)\nclass A:\n    x: int\n    y: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "        object.__setattr__(self, '_memo', {})\n"
        "        for name in ('y', 'z'):\n"
        "            object.__setattr__(self, name, 0)\n"
        "        object.__setattr__(self, 'y' + '', 0)\n"
        "@dataclass\nclass B:\n    x: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_free', 0)\n")}
    assert undeclared_frozen_attributes(trees) == [("a.py", "A", "?"), ("a.py", "A", "_memo"),
                                                   ("a.py", "A", "z")]


def test_frozen_dataclasses_set_only_their_fields():
    # a frozen record holds its declared fields; a cache planted beside
    # them is state that its equality and its readers do not see
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    assert undeclared_frozen_attributes(trees) == []


def solve_calls(trees: dict) -> list:
    """(file, function, line) of every ``np.linalg.solve`` call (any
    ``<module>.linalg.solve(...)``) in ``trees`` (file name -> parsed
    source), in source order; ``function`` is the dotted name of the
    innermost enclosing def or class, ``<module>`` at the top level."""
    found = []

    def visit(node, file, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, file, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "solve"
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "linalg"):
                found.append((file, where, child.lineno))
            visit(child, file, where)

    for file, tree in trees.items():
        visit(tree, file, "<module>")
    return found


def test_solve_calls_are_found():
    trees = {"a.py": ast.parse("import numpy as np\n"
                               "def f(A, b):\n    return np.linalg.solve(A, b)\n"
                               "class K:\n"
                               "    def m(self, A, b):\n"
                               "        def inner():\n"
                               "            return numpy.linalg.solve(A, np.linalg.solve(A, b))\n"
                               "        return inner\n"
                               "x = np.linalg.solve(A, b)\n"
                               "def g(A, b):\n    return np.linalg.lstsq(A, b), solve(A, b)\n")}
    assert solve_calls(trees) == [("a.py", "f", 3), ("a.py", "K.m.inner", 7),
                                  ("a.py", "K.m.inner", 7), ("a.py", "<module>", 9)]


def test_every_linear_solve_is_the_kernels_stacked_solve():
    # stage 1 and the lasso kernel share one stacked solve and its
    # singular-block handling; a second copy would drift from it
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    calls = solve_calls(trees)
    assert calls and all(call[:2] == ("lasso.py", "_stacked_solve") for call in calls)


WRITE_MODE_CHARS = set("wax+")


def file_writes(trees: dict) -> list:
    """(file, function, line, call) of every ``os.open(...)`` call and every
    ``open(...)`` / ``io.open(...)`` call whose mode writes, or is not a
    literal, in ``trees`` (file name -> parsed source), in source order;
    ``function`` is the dotted name of the innermost enclosing def or
    class, ``<module>`` at the top level."""
    found = []

    def mode_of(call):
        for kw in call.keywords:
            if kw.arg == "mode":
                return kw.value
        return call.args[1] if len(call.args) > 1 else ast.Constant("r")

    def visit(node, file, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, file, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else (
                    f"{func.value.id}.{func.attr}"
                    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    else None)
                if name == "os.open":
                    found.append((file, where, child.lineno, name))
                elif name in ("open", "io.open"):
                    mode = mode_of(child)
                    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                            and not WRITE_MODE_CHARS & set(mode.value)):
                        found.append((file, where, child.lineno, name))
            visit(child, file, where)

    for file, tree in trees.items():
        visit(tree, file, "<module>")
    return found


def test_file_writes_are_found():
    trees = {"a.py": ast.parse("import io, os\n"
                               "def f(p):\n    return open(p), open(p, 'r'), open(p, 'rb')\n"
                               "def g(p, m):\n"
                               "    open(p, 'w'); open(p, mode='ab'); io.open(p, 'r+')\n"
                               "    return open(p, m)\n"
                               "class K:\n"
                               "    def m(self, p):\n"
                               "        return os.open(p, os.O_RDONLY), open(p, encoding='x')\n"
                               "x = open('q', 'x')\n")}
    assert file_writes(trees) == [("a.py", "g", 5, "open"), ("a.py", "g", 5, "open"),
                                  ("a.py", "g", 5, "io.open"), ("a.py", "g", 6, "open"),
                                  ("a.py", "K.m", 9, "os.open"), ("a.py", "<module>", 10, "open")]


def test_every_file_write_is_io_write_text():
    # one writer overwrites in place: an open(..., "w") truncates to zero
    # first, which on ext4 stalls a rewrite for tens of milliseconds
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    writes = file_writes(trees)
    assert len(writes) == 1 and writes[0][:2] == ("io.py", "write_text")
    assert writes[0][3] == "os.open"
