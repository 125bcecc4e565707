"""Source hygiene checks that need no linter.

Every module-level import is used, no function repeats a relative import
from a module its file already imports from at module level, every
module-level definition is either exported or read somewhere in the
package, every def or class of the package is named in the package, its
tests or the benchmark, every parameter with a default is passed at some
call there, no while loop outside ``algebra`` runs a Euclid of
its own, no module but ``canonical`` names ``solution_rows_affine``,
``weyl`` imports no cmath and calls no exp, no
module but ``exact`` reads the ``re`` or ``im`` of a scalar,
every name the benchmark's tracer wraps exists, and importing the command
line and every module of the package loads no scipy.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "screwfn").glob("*.py"))


def _module_constant(tree: ast.Module, name: str):
    """The literal value assigned to a module-level name; KeyError if there is none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def _exported(tree: ast.Module) -> set[str]:
    try:
        return set(_module_constant(tree, "__all__"))
    except KeyError:
        return set()


def _unused_imports(tree: ast.Module) -> list[str]:
    exported = _exported(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    unused.append(name)
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_flags_an_unused_import():
    tree = ast.parse("import cmath\nimport math\nfrom .x import y\n__all__ = ['y']\nmath.pi\n")
    assert _unused_imports(tree) == ["cmath"]


def _redundant_local_imports(tree: ast.Module) -> list[str]:
    """Relative imports inside functions from a module the file imports from at module level.

    A module-level import already loads the module, so no import cycle
    forces the function-level one.
    """
    top = {(n.level, n.module) for n in tree.body if isinstance(n, ast.ImportFrom) and n.level}
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top:
                    found[node.lineno] = f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_redundant_function_level_imports(path):
    assert _redundant_local_imports(ast.parse(path.read_text())) == []


def test_guard_flags_a_redundant_local_import():
    tree = ast.parse(
        "from .a import x\n"
        "def f():\n    from .a import y\n    from .b import z\n"
        "    def g():\n        from .a import w\n"
    )
    assert _redundant_local_imports(tree) == ["line 3: from .a", "line 6: from .a"]


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, in source order.

    Dunder names such as __all__ and __version__ are module metadata and
    are left out.
    """
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a variable, an attribute or an import alias."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _dead_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """Definitions outside their module's __all__ that no module reads."""
    loaded = set().union(*(_loaded_names(t) for t in modules.values()))
    return [
        name
        for tree in modules.values()
        for name in _defined_names(tree)
        if name not in _exported(tree) and name not in loaded
    ]


def test_no_dead_module_definitions():
    modules = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _dead_definitions(modules) == []


def test_guard_flags_a_dead_definition():
    a = ast.parse(
        "__all__ = ['f']\n__version__ = '1'\nLIMIT = 3\nDEAD = 4\n_TOL = 1e-9\n"
        "def f():\n    return LIMIT\ndef _unused():\n    pass\n"
    )
    b = ast.parse("from .a import _TOL\n")
    assert _dead_definitions({"a.py": a, "b.py": b}) == ["DEAD", "_unused"]


def _named(tree: ast.Module) -> set[str]:
    """_loaded_names, and the parts of string literals that are dotted names.

    The benchmark's tracer names what it wraps in strings such as
    "StepVector.from_row_values"; a docstring is prose and names nothing.
    """
    strings = (n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    dotted = (s.split(".") for s in strings if re.fullmatch(r"[A-Za-z_][\w.]*", s))
    return _loaded_names(tree).union(*dotted)


def _unreferenced_definitions(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    """"file name" for every non-dunder def or class, at any depth, that no module names."""
    named = set().union(*(_named(t) for t in reading))
    return [
        f"{file} {n.name}"
        for file, tree in defining.items()
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (n.name.startswith("__") and n.name.endswith("__"))
        and n.name not in named
    ]


def test_no_unreferenced_definitions():
    # a def is named by its callers, never by its own definition, which ast keeps apart
    defining = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    readers = [*SOURCES, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert _unreferenced_definitions(defining, [ast.parse(p.read_text()) for p in readers]) == []


def test_guard_flags_an_unreferenced_definition():
    a = ast.parse(
        "class C:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
        "    def __eq__(self, o):\n        pass\n"
        "def traced():\n    def inner():\n        pass\n    return C().used()\n"
    )
    b = ast.parse('"""unused is named in a docstring only."""\nTRACED = ("C.traced",)\n')
    assert _unreferenced_definitions({"a.py": a}, [a, b]) == ["a.py unused", "a.py inner"]


def _call_arguments(trees) -> dict[str, list]:
    """Per called name, (positional count, keyword names, starred) of each call.

    A call is matched by its function's name or attribute, so obj.f(x) and f(x) both count for f.
    """
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _idle_options(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    """"file def parameter" for every parameter with a default that no call passes.

    A class name stands for its __init__; self and cls are bound, not passed.
    A call with *args or **kwargs passes every parameter.
    """
    calls = _call_arguments(reading)
    idle = []
    for file, tree in defining.items():
        init_of = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if positional and positional[0] in ("self", "cls"):
                positional = positional[1:]
            sites = calls.get(init_of.get(id(fn), fn.name), [])
            idle += [
                f"{file} {fn.name} {p}" for p in defaulted
                if p not in ("self", "cls") and not any(
                    starred or p in keywords or p in positional[:n] for n, keywords, starred in sites)
            ]
    return idle


def test_no_idle_options():
    defining = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    readers = [*SOURCES, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert _idle_options(defining, [ast.parse(p.read_text()) for p in readers]) == []


def test_guard_flags_an_idle_option():
    a = ast.parse(
        "class C:\n    def __init__(self, x=1, y=2):\n        pass\n"
        "    def m(self, p, q=0, *, k=None):\n        pass\n"
        "def f(a, b=1, c=2):\n    pass\n"
        "def g(u=0):\n    pass\n"
    )
    b = ast.parse("C(5)\nC().m(1, 2)\nf(0, c=3)\ng(*args)\n")
    assert _idle_options({"a.py": a}, [a, b]) == ["a.py f b", "a.py __init__ y", "a.py m k"]


def _euclid_loops(tree: ast.Module) -> list[str]:
    """Lines of while loops that call a divmod: a Euclid of their own.

    algebra._signed_remainders is the one field Euclid; its readers take the
    terms and quotients from it rather than looping over divisions.
    """
    found = set()
    for loop in ast.walk(tree):
        if isinstance(loop, ast.While):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    if "divmod" in name:
                        found.add(loop.lineno)
    return [f"line {n}" for n in sorted(found)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_no_euclid_loop_outside_algebra(path):
    assert _euclid_loops(ast.parse(path.read_text())) == []


def test_guard_flags_a_euclid_loop():
    tree = ast.parse(
        "q, r = a.divmod(b)\n"
        "while b:\n    a, b = b, a.divmod(b)[1]\n"
        "while n:\n    n, d = divmod(n, 10)\n"
        "while x:\n    x -= 1\n"
    )
    assert _euclid_loops(tree) == ["line 2", "line 4"]


def _affine_row_reads(tree: ast.Module) -> list[str]:
    """Lines that name solution_rows_affine: an import, a name or an attribute.

    The Weyl layer reads canonical._breakpoint_rows; solution_rows_affine
    stays in canonical as the public reference for the affine form of the
    row.  A docstring is prose and names nothing.
    """
    return [f"line {n}" for n in sorted({
        n.lineno for n in ast.walk(tree)
        if "solution_rows_affine" in (getattr(n, "id", None), getattr(n, "attr", None))
        or isinstance(n, ast.ImportFrom) and any(a.name == "solution_rows_affine" for a in n.names)})]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "canonical.py"],
                         ids=lambda p: p.name)
def test_no_affine_rows_outside_canonical(path):
    assert _affine_row_reads(ast.parse(path.read_text())) == []


def test_guard_flags_an_affine_row_read():
    tree = ast.parse(
        '"""Reads no solution_rows_affine."""\n'
        "from .canonical import Hamiltonian, solution_rows_affine\n"
        "rows = canonical.solution_rows_affine(H)\n"
        "f = solution_rows_affine\n"
    )
    assert _affine_row_reads(tree) == ["line 2", "line 3", "line 4"]


def _own_exponentials(tree: ast.Module) -> list[str]:
    """Lines that import cmath or call an exp: a copy of the screw line's exponential.

    weyl reads the screw line (exp(i g t) - 1)/g, and Phi1's integrand, from
    screw._screw_line, its one evaluator.  A docstring is prose and calls nothing.
    """
    return [f"line {n}" for n in sorted({
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and "exp" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        or isinstance(n, ast.Import) and any(a.name == "cmath" for a in n.names)
        or isinstance(n, ast.ImportFrom) and n.module == "cmath"})]


def test_weyl_forms_no_exponential_of_its_own():
    assert _own_exponentials(ast.parse((ROOT / "src" / "screwfn" / "weyl.py").read_text())) == []


def test_guard_flags_an_own_exponential():
    tree = ast.parse(
        '"""Coefficients sqrt(m) (exp(itg) - 1)/g, read from screw."""\n'
        "import cmath\n"
        "from cmath import exp\n"
        "a = cmath.exp(1j * t * g)\n"
        "b = np.exp(1j * g * ts)\n"
        "c = exp(x)\n"
        "d = np.expm1(x) + self.exponent\n"
    )
    assert _own_exponentials(tree) == ["line 2", "line 3", "line 4", "line 5", "line 6"]


def _part_reads(tree: ast.Module) -> list[str]:
    """Lines that read .re, .im or .coef: the parts of an ExactComplex or a PiScalar.

    Real exact data are Fractions, which have no re or im, so code outside
    exact reads the protocol names real and imag, which Fraction,
    ExactComplex and complex share.  A PiScalar's coef is a Fraction or an
    ExactComplex by exact's scalar rule, so code outside exact reads the
    value through the PiScalar's own methods.
    """
    return [f"line {n.lineno}: .{n.attr}" for n in sorted(
        (n for n in ast.walk(tree)
         if isinstance(n, ast.Attribute) and n.attr in ("re", "im", "coef")),
        key=lambda n: (n.lineno, n.col_offset))]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact.py"],
                         ids=lambda p: p.name)
def test_no_part_reads_outside_exact(path):
    assert _part_reads(ast.parse(path.read_text())) == []


def test_guard_flags_a_part_read():
    tree = ast.parse("def f(c):\n    return c.real + c.re\nx = f(1).imag\ny = c.coef.im\n")
    assert _part_reads(tree) == ["line 2: .re", "line 4: .im", "line 4: .coef"]


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these by name; a rename would crash `--trace 1`
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = _module_constant(tree, "TRACED")
    method_attr = _module_constant(tree, "METHOD_ATTR")
    missing = []
    for mod_name, names in traced.items():
        mod = importlib.import_module(f"screwfn.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                found = cls is not None and method_attr.get(meth, meth) in vars(cls)
            else:
                found = callable(getattr(mod, name, None))
            if not found:
                missing.append(f"{mod_name}.{name}")
    assert missing == []


def test_package_imports_no_scipy():
    # scipy.special alone costs a fresh interpreter about 0.2 s of CPU and 20 MB of resident
    # memory, and scipy.integrate some 290 modules more; numpy is the one runtime dependency
    probe = ("import importlib, sys\n"
             "for name in sys.argv[1:]: importlib.import_module(name)\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    names = [f"screwfn.{p.stem}" for p in SOURCES if p.stem != "__init__"]  # cli among them
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe, *names], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
