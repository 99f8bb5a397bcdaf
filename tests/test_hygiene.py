"""Source hygiene checks on `src/ncspec`, using only the standard library."""

import ast
import gc
import importlib
import json
import weakref
from pathlib import Path

import pytest
from conftest import python_stdout

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncspec"


def unused_imports(source: str) -> list:
    """Names bound by an import that the module never reads or exports."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_detector():
    src = "import os\nfrom a import b, c as d\nimport x.y\n__all__ = ['c']\nd(os)\n"
    assert unused_imports(src) == [(2, "b"), (3, "x")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


DESCRIPTOR_CLASSES = {"ZeroRing", "ModularRing", "ProductRing", "MatrixRing", "SemisimpleAlgebra",
                      "UnivariatePolyRing", "LocalizedPolyRing", "SkewLaurentRing"}


def ring_kind_tests(source: str, module_functions_only=False) -> list:
    """(line, enclosing function, test) of each test of the ring kind: a
    descriptor class passed to `isinstance`, by name or as `module.Name`,
    alone or in a tuple, and `.local_factors is None` or `is not None`.
    A method is named `Class.method`, and module level is None; with
    module_functions_only, the bodies of classes are skipped."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and module_functions_only:
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{func}.{node.name}" if func else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            spec = node.args[1]
            for cls in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
                name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
                if name in DESCRIPTOR_CLASSES:
                    found.append((node.lineno, func, name))
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.left, ast.Attribute) and node.left.attr == "local_factors"
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            op = "is None" if isinstance(node.ops[0], ast.Is) else "is not None"
            found.append((node.lineno, func, f"local_factors {op}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda t: t[0])


def test_block_ring_kind_detector():
    src = ("isinstance(r, MatrixRing)\nisinstance(r, (rg.ZeroRing, Foo))\n"
           "isinstance(r, UnivariatePolyRing)\nMatrixRing(base, 2)\n"
           "def f(r):\n    return r.local_factors is None or r.local_factors[0]\n"
           "class C:\n    def g(self, r):\n        return r.local_factors is not None\n")
    module_level = [(1, None, "MatrixRing"), (2, None, "ZeroRing"),
                    (3, None, "UnivariatePolyRing"), (6, "f", "local_factors is None")]
    assert ring_kind_tests(src) == module_level + [(9, "C.g", "local_factors is not None")]
    assert ring_kind_tests(src, module_functions_only=True) == module_level


# The modules that define descriptor classes and their hom rules: there a
# class answers for its own kind, so only module-level functions are read.
DESCRIPTOR_MODULES = {"rings.py", "qpoly.py", "skewpoly.py"}

# The kind tests that stay, by module and enclosing function.
KIND_TESTS_KEPT = {
    ("commbridge.py", "spec"):
        "the primes of a cyclic ring are read off its local factors, others search idempotents",
    ("glueqcoh.py", "FiniteModule.__post_init__"): "finite modules are built over Z/n only",
    ("glueqcoh.py", "tensor_module"): "base change reads a product of cyclic rings block by block",
    ("glueqcoh.py", "tilde_module"): "module sheaves are built over Z/n only",
}


def _kind_tests(path):
    return ring_kind_tests(path.read_text(encoding="utf-8"),
                           module_functions_only=path.name in DESCRIPTOR_MODULES)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_block_ring_readers_do_not_test_the_ring_kind(path):
    # each descriptor answers the questions asked of its kind: its blocks
    # (`split`, `join`, `unit_blocks`, `keep`), its moduli, its cell order
    # and section rings, what its blocks keep under a quotient, and how it
    # reads, writes and localizes its elements
    assert [t for t in _kind_tests(path) if (path.name, t[1]) not in KIND_TESTS_KEPT] == []


def test_every_kept_kind_test_is_still_there():
    found = {(path.name, func) for path in sorted(PACKAGE.glob("*.py"))
             for _line, func, _test in _kind_tests(path)}
    assert set(KIND_TESTS_KEPT) <= found


def local_factor_reads(source: str) -> list:
    """(line, enclosing function) of each `.local_factors` that is not
    tested with `is None` or `is not None` (function None at module level)."""
    tree = ast.parse(source)
    tested = {id(node.left) for node in ast.walk(tree)
              if isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.Is, ast.IsNot))
              and isinstance(node.comparators[0], ast.Constant)
              and node.comparators[0].value is None}
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "local_factors"
                and id(node) not in tested):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_local_factor_read_detector():
    src = ("x = r.local_factors\ndef f(r):\n    if r.local_factors is None:\n"
           "        return r.local_factors is not None\n    return r.local_factors[0][1]\n"
           "def g(T):\n    return [q for _j, _p, q in T.local_factors]\n")
    assert local_factor_reads(src) == [(1, None), (5, "f"), (7, "g")]


# the one policy outside `rings` that reads the (modulus, prime, prime power) triples
LOCAL_FACTOR_READERS = {"commbridge.py": {"spec"}}


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "rings.py"],
                         ids=lambda p: p.name)
def test_products_of_cyclic_rings_are_read_through_their_blocks(path):
    # everywhere else `blocks` (with `split` for coordinates) is the view
    allowed = LOCAL_FACTOR_READERS.get(path.name, set())
    reads = local_factor_reads(path.read_text(encoding="utf-8"))
    assert [(line, func) for line, func in reads if func not in allowed] == []


def validated_writers(source: str) -> list:
    """The functions that assign a `.validated` attribute (None at module level)."""
    writers = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "validated" for t in targets):
            writers.append(func)
        if (isinstance(node, ast.Call) and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "validated"):
            writers.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return writers


def test_validated_writer_detector():
    src = ("def hom_validate(h):\n    h.validated = True\n"
           "def cheat(h):\n    h.validated |= True\n    setattr(h, 'validated', True)\n"
           "x.validated = False\n")
    assert validated_writers(src) == ["hom_validate", "cheat", "cheat", None]


def test_only_validation_and_composition_certify_homs():
    # a hom is marked validated only after a check or by composing validated homs
    for path in sorted(PACKAGE.glob("*.py")):
        writers = validated_writers(path.read_text(encoding="utf-8"))
        if path.name == "rings.py":
            assert sorted(set(writers)) == ["hom_compose", "hom_validate"]
        else:
            assert writers == [], path.name


def assert_owners(source: str) -> list:
    """The enclosing function of each `assert` statement (None at module level)."""
    owners = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Assert):
            owners.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return owners


def test_assert_owner_detector():
    src = "assert x\ndef f():\n    assert y\n    def g():\n        assert z\n"
    assert assert_owners(src) == [None, "f", "g"]


def test_module_layer_checks_are_not_asserts():
    # asserts vanish under python -O, the twist law of the skew Ore witnesses too
    assert assert_owners((PACKAGE / "glueqcoh.py").read_text(encoding="utf-8")) == []


# A twist that answers a new scalar on every call breaks the twist law the
# structural Ore witnesses rest on.
ORE_TWIST_CHECK = """
from fractions import Fraction
from itertools import count

from ncspec import glueqcoh, skewpoly
from ncspec import rings as rg
from ncspec.errors import OreConditionFails

ring = skewpoly.skew_ring(2, {(0, 1): 2})
E = (rg.element(ring, skewpoly.variable(2, 0)),)
print(len(glueqcoh.certify_ore(ring, E, 2).witnesses))
calls = count(2)
skewpoly.twist = lambda lam, a, b: Fraction(next(calls))
try:
    glueqcoh.certify_ore(ring, E, 2)
except OreConditionFails as exc:
    print(type(exc).__name__, len(exc.witness))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_broken_twist_law_is_a_typed_ore_error(flags):
    out = python_stdout(flags, ORE_TWIST_CHECK)
    assert out.split() == ["2", "OreConditionFails", "2"]


@pytest.mark.parametrize("name", ["commbridge.py", "latspace.py", "sheafspec.py", "rings.py",
                                  "localization.py", "qpoly.py", "skewpoly.py", "skewproj.py"])
def test_bridge_and_sheaf_checks_are_not_asserts(name):
    # every check in these modules must survive python -O
    assert assert_owners((PACKAGE / name).read_text(encoding="utf-8")) == []


# The former asserts of qpoly, skewpoly and skewproj, as typed errors that
# survive python -O.  The first and last guard facts of exact arithmetic,
# so a broken gcd or product stands in for the failure.
ARITHMETIC_CHECKS = """
from ncspec import qpoly, skewpoly, skewproj
from ncspec.errors import UnsupportedClass


def error_name(fn, *args):
    try:
        fn(*args)
    except (ArithmeticError, ValueError, UnsupportedClass) as exc:
        return type(exc).__name__
    return None


print(error_name(skewpoly.monomial, 2, (1, 2, 3)))
qpoly.gcd = lambda p, q: qpoly.poly([1, 1])
print(error_name(qpoly.squarefree_part, qpoly.poly([0, 0, 1])))
skewpoly.mul = lambda lam, p, q: dict(p)
ring = skewpoly.skew_ring(3, {(0, 1): 2, (0, 2): 3, (1, 2): 5})
print(error_name(skewproj.chart_ring_descriptor, ring, 0))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_polynomial_invariants_are_typed_errors(flags):
    out = python_stdout(flags, ARITHMETIC_CHECKS)
    assert out.split() == ["ValueError", "ArithmeticError", "UnsupportedClass"]


def generated_code(source: str) -> list:
    """Imports of `dataclasses` and calls of `exec`, `eval` or `compile`, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append((node.lineno, "dataclasses"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("exec", "eval", "compile")):
            found.append((node.lineno, node.func.id))
    return found


def test_generated_code_detector():
    src = "import dataclasses\nfrom dataclasses import field\nexec('1')\nx.eval(2)\ncompile(s)\n"
    assert generated_code(src) == [(1, "dataclasses"), (2, "dataclasses"), (3, "exec"),
                                   (5, "compile")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_generated_code(path):
    # value classes come from ncspec.records, which compiles nothing
    assert generated_code(path.read_text(encoding="utf-8")) == []


# modules a cold CLI call must not load: code generation, and the
# command-line parser of the standard library with its translation lookups
COLD_CLI_UNLOADED = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize',
                     'argparse', 'gettext', 'locale')


def test_cli_import_loads_no_code_generation_modules():
    out = python_stdout([], "import sys, ncspec.cli\n"
                            f"print(*[m for m in {COLD_CLI_UNLOADED!r} if m in sys.modules])")
    assert out.split() == []


def test_a_cli_call_loads_no_code_generation_modules(tmp_path):
    ring = tmp_path / "z6.json"
    ring.write_text('{"schema": "ncspec.ring/1", "kind": "modular", "n": 6}', encoding="utf-8")
    out = python_stdout([], "import io, sys, contextlib, ncspec.cli\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            f"    code = ncspec.cli.main(['ring-validate', '--ring', {str(ring)!r}])\n"
                            f"print(code, *[m for m in {COLD_CLI_UNLOADED!r} if m in sys.modules])")
    assert out.split() == ["0"]


# what `fractions` loads: a call that makes no rational must load none of it
RATIONAL_MODULES = ("fractions", "decimal", "numbers")
# nor does a call on a finite ring load the Q[x] or the skew Laurent code
FINITE_UNLOADED = RATIONAL_MODULES + ("ncspec.qpoly", "ncspec.skewpoly")


def _ring(**body):
    return {"schema": "ncspec.ring/1", **body}


_M2F2 = {"kind": "matrix", "base": "f2", "size": 2}
_ZERO_2X2 = [[0, 0], [0, 0]]

# one call of each finite shape of the benchmark's cold CLI pool
FINITE_CALLS = (
    ("ncspec", "--ring", _ring(kind="modular", n=6)),
    ("ncspec", "--ring", _ring(kind="product", factors=[{"kind": "modular", "n": 2}] * 4)),
    ("ncspec", "--ring", _ring(kind="semisimple", base="f2", dims=[1, 2])),
    ("ncspec", "--ring", _ring(**_M2F2)),
    ("semilattice", "--ring", _ring(kind="modular", n=60)),
    ("spec", "--ring", _ring(kind="modular", n=30)),
    ("embed", "--ring", _ring(kind="modular", n=12)),
    ("exp", "--ring", _ring(kind="modular", n=6)),
    ("morphism", "--morphism", {"schema": "ncspec.morphism/1",
                                "source": {"kind": "modular", "n": 6},
                                "target": {"kind": "modular", "n": 3},
                                "rule": {"kind": "canonical_quotient"}}),
    ("prim-check", "--morphism", {"schema": "ncspec.morphism/1",
                                  "source": {"kind": "modular", "n": 30},
                                  "target": {"kind": "modular", "n": 6},
                                  "rule": {"kind": "canonical_quotient"}}),
    ("glue", "--glue", {"schema": "ncspec.glue/1", "pieces": [_M2F2] * 2,
                        "overlaps": [{"from": 0, "to": 1, "subset": [_ZERO_2X2]},
                                     {"from": 1, "to": 0, "subset": [_ZERO_2X2]}],
                        "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                                 {"from": 1, "to": 0, "rule": {"kind": "identity"}}]}),
)

# two calls that do make a Fraction, so the check above is not vacuous
RATIONAL_CALLS = (
    ("ncspec", "--ring", _ring(kind="semisimple", base="q", dims=[2, 3])),
    ("proj-gamma", "--ring", _ring(kind="skew_laurent", nvars=2, **{"lambda": [[1, 2, "2"]]}),
     "--window", "0", "2"),
)


def rational_modules_after(tmp_path, calls, modules=RATIONAL_MODULES) -> list:
    """[exit code, the modules loaded] after each of calls, run in order by
    `cli.main` in one fresh interpreter."""
    argvs = []
    for k, (sub, flag, doc, *extra) in enumerate(calls):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append([sub, flag, str(path), *extra])
    out = python_stdout([], "import io, json, sys, contextlib, ncspec.cli\n"
                            f"for argv in {argvs!r}:\n"
                            "    with contextlib.redirect_stdout(io.StringIO()):\n"
                            "        code = ncspec.cli.main(argv)\n"
                            f"    loaded = [m for m in {modules!r} if m in sys.modules]\n"
                            "    print(json.dumps([code, loaded]))\n")
    return [json.loads(line) for line in out.splitlines()]


def test_a_finite_ring_call_loads_no_fractions(tmp_path):
    out = python_stdout([], "import sys, ncspec.cli\n"
                            f"print(*[m for m in {FINITE_UNLOADED!r} if m in sys.modules])")
    assert out.split() == []
    assert (rational_modules_after(tmp_path, FINITE_CALLS, FINITE_UNLOADED)
            == [[0, []]] * len(FINITE_CALLS))


@pytest.mark.parametrize("call", RATIONAL_CALLS, ids=lambda c: c[0])
def test_a_call_that_makes_a_fraction_loads_fractions(tmp_path, call):
    assert rational_modules_after(tmp_path, [call]) == [[0, list(RATIONAL_MODULES)]]


def traced_names(source: str) -> dict:
    """The literal `SPANS`, `METHODS` and `ARITH` tables of a tracer module."""
    tables = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "METHODS", "ARITH")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_entry_points_resolve():
    # the benchmark's tracer wraps these names by lookup, so a renamed
    # entry point would otherwise fail only in the benchmark's own checks
    layers = PACKAGE.parent.parent / "perfbench" / "layers.py"
    tables = traced_names(layers.read_text(encoding="utf-8"))
    names = list(tables["SPANS"])
    names += [(m, f"{cls}.{meth}") for m, cls, meth, _span in tables["METHODS"]]
    names += [("rings", f) for f in tables["ARITH"]]
    missing = []
    for modname, dotted in names:
        obj = importlib.import_module(f"ncspec.{modname}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((modname, dotted))
    assert names and missing == []


def public_definitions(source: str) -> set:
    """The top-level functions, classes and assigned constants of a module
    whose names do not start with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def module_references(source: str, module=None) -> set:
    """The (module, name) pairs of `ncspec` that source reads: `from .m import
    N` (or `from ncspec.m import N`), `a.N` through a module alias `a` (from
    `from . import m as a`, `from ncspec import m` or `import ncspec.m as a`)
    and `ncspec.m.N`; when module is given, also a bare name read outside
    the top-level definition that binds it.  Strings, docstrings included,
    do not count."""
    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level == 1 or (node.module or "").split(".")[0] == "ncspec"
            if inside and node.module in (None, "ncspec"):
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif inside:
                found.update((node.module.split(".")[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, a.name.split(".")[1]) for a in node.names
                           if a.asname and a.name.startswith("ncspec."))

    def visit(node, owner):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add((aliases[base.id], node.attr))
                return
            if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                    and base.value.id == "ncspec"):
                found.add((base.attr, node.attr))
                return
        if (module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id != owner):
            found.add((module, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        visit(node, getattr(node, "name", None))
    return found


def test_public_name_detector():
    src = ("from . import rings as rg\nfrom .m import A\nimport ncspec.k as kk\n"
           "X = 1\n_Y = 2\n\n\ndef f():\n    'g X'\n    return f() + rg.one + kk.Z + ncspec.q.W\n\n\n"
           "def g():\n    return X\n\n\nclass C:\n    pass\n")
    assert public_definitions(src) == {"X", "f", "g", "C"}
    assert module_references(src, "mod") == {("rings", "one"), ("m", "A"), ("k", "Z"),
                                             ("q", "W"), ("mod", "X")}
    assert module_references(src) == {("rings", "one"), ("m", "A"), ("k", "Z"), ("q", "W")}


README = PACKAGE.parent.parent / "README.md"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def readme_uncalled_rows() -> dict:
    """(module, name) -> (claim, test) of each row of the README table of
    public names that no library code calls."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("### Public names that no library code calls")
    rows = {}
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            module, name = cells[0].strip("`").split(".")
            rows[(module, name)] = (cells[1], cells[2].strip("`"))
    return rows


def uncalled_public_names() -> set:
    """The public names of `src/ncspec` that neither other library code nor
    the benchmark reads; the benchmark's tracer also names what it wraps
    in its `SPANS`, `METHODS` and `ARITH` tables."""
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined.update((path.stem, name) for name in public_definitions(source))
        used |= module_references(source, path.stem)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= module_references(path.read_text(encoding="utf-8"))
    tables = traced_names((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    used.update(tables["SPANS"])
    used.update((m, cls) for m, cls, _meth, _span in tables["METHODS"])
    used.update(("rings", f) for f in tables["ARITH"])
    return defined - used


def test_every_public_name_has_a_caller_or_a_readme_row():
    # test-only code belongs in tests/; a claim or an entry point is listed
    uncalled, rows = uncalled_public_names(), set(readme_uncalled_rows())
    assert sorted(uncalled - rows) == [], "public names with no caller and no README row"
    assert sorted(rows - uncalled) == [], "README rows of names that are gone or have a caller"


def test_each_readme_row_names_its_claim_and_an_existing_test():
    rows = readme_uncalled_rows()
    assert rows
    for (module, name), (claim, test) in rows.items():
        path, _, test_name = test.partition("::")
        tree = ast.parse((PACKAGE.parent.parent / path).read_text(encoding="utf-8"))
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert claim and test_name in tests, (module, name, test)


# Every cache of the package has a bound.
UNBOUNDED_CACHES = set()


def lru_caches() -> dict:
    """The maxsize of every `functools.lru_cache` defined at module level
    in `ncspec.*`, by 'module.name'."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):     # importing __main__ runs the CLI
            continue
        mod = importlib.import_module(f"ncspec.{path.stem}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                found[f"{path.stem}.{name}"] = obj.cache_parameters()["maxsize"]
    return found


def test_every_cache_has_a_bound_or_is_listed():
    caches = lru_caches()
    assert {"sheafspec.ncspec", "rings.unit_idempotent"} <= set(caches)
    assert caches["rings._quotient_hom"] == caches["sheafspec.ncspec"] == 32
    assert caches["localization._localize_cached"] == caches["rings.unit_idempotent"] == 4096
    assert caches["localization._localize_cell"] == 4096
    assert {name for name, size in caches.items() if size is None} == UNBOUNDED_CACHES


def test_clear_caches_frees_every_space_and_morphism():
    from ncspec import commbridge, localization, sheafspec
    from ncspec import rings as rg

    def build():
        """Weak references to a morphism, its quotient hom and the spaces of
        Z/30 and Z/6, after its verdicts and the bridge answers of Z/30."""
        theta = rg.quotient_hom(30, 6)
        m = sheafspec.ncspec_morphism(theta)
        m.verify()
        sheafspec.is_prim_report(m)
        r = rg.ModularRing(30)
        for check in (commbridge.embed_phi, commbridge.union_of_primes_bijection,
                      commbridge.spec_exponential_iso):
            check(r)
        assert sheafspec.ncspec(r) is m.target
        return [weakref.ref(x) for x in (m, theta, m.source, m.target)]

    sheafspec.clear_caches()
    refs = build()
    gc.collect()
    assert None not in [ref() for ref in refs]      # the memos hold them
    memos = (localization._localize_cached, localization._localize_cell)
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    sheafspec.clear_caches()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
