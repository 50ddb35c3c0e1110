"""Guards on names: the benchmark tracer's targets, the demo scripts,
the package namespace, and no function, class or method in the package
that only tests use, apart from a short allow-list."""

import ast
import collections
import glob
import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("prefix", sorted(tracer.TRACED))
def test_traced_target_resolves(prefix):
    for modname, path, _ in tracer.TRACED[prefix]:
        owner, attr, fn = tracer.resolve(modname, path)
        assert callable(fn), (prefix, path)


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


_IDENT_PATH = "[A-Za-z_][A-Za-z0-9_]*(\\.[A-Za-z_][A-Za-z0-9_]*)*"


def _names_used(tree):
    """Counters of the identifiers a tree uses, as (any use, attribute
    use).  Any use is a name, an attribute, an imported name or a part of
    a dotted-name string such as the tracer's "spencer.Echelon.solve";
    an attribute use is one of the last two."""
    anywhere, attrs = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            anywhere[node.id] += 1
        elif isinstance(node, ast.alias):
            anywhere[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(_IDENT_PATH, node.value):
            attrs.update(node.value.split("."))
    anywhere.update(attrs)
    return anywhere, attrs


def _definitions(tree, path=(), in_class=False):
    """(qualname, node, is a method) for each function and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield path + (node.name,), node, in_class
            yield from _definitions(node, path + (node.name,), isinstance(node, ast.ClassDef))


# Package definitions that only tests/ reaches, each with the reason it
# stays. Everything else must be reached from src/, demos/ or bench/.
TEST_ONLY = {
    "format_problem": "the printer of the parse/print fixed point that criterion 10 checks",
    "wedge": "the exterior product of the Leibniz rule for d that criterion 9 checks",
}


def _parse_all(top):
    trees = {}
    for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), filename=path)
    return trees


def test_every_package_definition_is_referenced():
    """Every function, class and method under src/jetforge is used from
    src/, demos/ or bench/; one that only tests/ reaches must be listed
    in TEST_ONLY, and every TEST_ONLY entry must still be test-only.  A
    method counts as used only through an attribute or a dotted-name
    string, not through a bare name such as a local variable."""
    live, tests = {}, _parse_all("tests")
    for top in ("src", "demos", "bench"):
        live.update(_parse_all(top))
    used_live = [collections.Counter(), collections.Counter()]
    used_tests = [collections.Counter(), collections.Counter()]
    for trees, used in ((live, used_live), (tests, used_tests)):
        for tree in trees.values():
            for counter, uses in zip(used, _names_used(tree)):
                counter.update(uses)
    unused, test_only = [], {}
    for path, tree in live.items():
        if not path.startswith(os.path.join(ROOT, "src", "jetforge") + os.sep):
            continue
        for qualname, node, is_method in _definitions(tree):
            name = qualname[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            where = "%s: %s" % (os.path.relpath(path, ROOT), ".".join(qualname))
            # uses inside the definition itself (recursion) do not count;
            # index 1 of each counter pair holds the attribute uses
            if used_live[is_method][name] > _names_used(node)[is_method][name]:
                continue
            if used_tests[is_method][name]:
                test_only[name] = where
            else:
                unused.append(where)
    assert not unused, "defined but never referenced: %s" % ", ".join(unused)
    unlisted = sorted(w for n, w in test_only.items() if n not in TEST_ONLY)
    assert not unlisted, "reached only from tests/: %s" % ", ".join(unlisted)
    stale = sorted(set(TEST_ONLY) - set(test_only))
    assert not stale, "TEST_ONLY entries that are gone or live: %s" % ", ".join(stale)


def test_package_namespace_is_the_submodules():
    import jetforge

    names = {n for n in vars(jetforge) if not (n.startswith("__") and n.endswith("__"))}
    assert names == {"mindex", "symexpr", "jetcalc", "spencer", "symbols",
                     "integrability", "formal", "pfd", "cli"}


def _json_dump_calls(tree):
    """The line numbers of the calls of json.dump and json.dumps in a
    tree, through any name it imports them or the module under."""
    modules, dumpers = {"json"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            dumpers.update(a.asname or a.name for a in node.names if a.name in ("dump", "dumps"))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                and isinstance(f.value, ast.Name) and f.value.id in modules) \
                or (isinstance(f, ast.Name) and f.id in dumpers):
            lines.append(node.lineno)
    return lines


def test_report_bytes_have_one_writer():
    """No module under src/jetforge calls json.dump or json.dumps: every
    JSON byte of a report comes from cli._write_json."""
    assert _json_dump_calls(ast.parse(
        "import json as j\nfrom json import dumps as d\nj.dump(x, f)\nd(x)\njson.dumps(x)\n"
    )) == [3, 4, 5]
    calls = ["%s:%d" % (os.path.relpath(path, ROOT), line)
             for path, tree in _parse_all(os.path.join("src", "jetforge")).items()
             for line in _json_dump_calls(tree)]
    assert not calls, "json.dump or json.dumps called at %s" % ", ".join(sorted(calls))


def _draw_loop_uses(tree):
    """The line numbers of each use of getrandbits or of a _randbelow*
    name in a tree, as an attribute or as a plain name."""
    def drawn(name):
        return name == "getrandbits" or name.startswith("_randbelow")
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and drawn(node.attr)
                  or isinstance(node, ast.Name) and drawn(node.id))


def test_no_module_copies_the_generators_draw_loop():
    """No module under src/jetforge reads getrandbits or a _randbelow*
    method: seeded draws go through the public methods of
    `random.Random`, whose values and state a copy of its private
    rejection loop would have to track."""
    assert _draw_loop_uses(ast.parse(
        "g = rng.getrandbits\nrow = g(3)\nrng._randbelow_with_getrandbits(5)\n"
        "from random import getrandbits\ngetrandbits(2)\nrng.choice(rows)\n"
    )) == [1, 3, 5]
    uses = ["%s:%d" % (os.path.relpath(path, ROOT), line)
            for path, tree in _parse_all(os.path.join("src", "jetforge")).items()
            for line in _draw_loop_uses(tree)]
    assert not uses, "the draw loop of random.Random used at %s" % ", ".join(sorted(uses))


def _private_reads(tree):
    """The line numbers where a tree reads a _-prefixed name of a
    jetforge module: `alias._name` through a name a package module is
    imported under, or `from .mod import _name` (relative or absolute).
    Dunder names do not count."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def in_package(node):
        return node.level > 0 or (node.module or "").split(".")[0] == "jetforge"
    modules, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and in_package(node):
            if node.module in (None, "jetforge"):
                modules.update(a.asname or a.name for a in node.names)
            lines += [node.lineno for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.asname and a.name.split(".")[0] == "jetforge")
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(lines)


def test_no_module_reads_another_modules_private_names():
    """No module under src/jetforge reads a _-prefixed name of another
    package module: what one module needs of another is public there."""
    assert _private_reads(ast.parse(
        "from . import symexpr as sx, symbols\nfrom .symbols import _entries, symbol_of\n"
        "sx._wrap(e)\nsymbols._points(c)\nsx.ZERO\nself._kept\nsx.__name__\n"
        "import jetforge.cli as c\nc._sides(t)\nfrom jetforge.pfd import _x\n"
        "from json.encoder import encode_basestring_ascii as _s\nrandom._inst\n"
    )) == [2, 3, 4, 9, 10]
    reads = ["%s:%d" % (os.path.relpath(path, ROOT), line)
             for path, tree in _parse_all(os.path.join("src", "jetforge")).items()
             for line in _private_reads(tree)]
    assert not reads, "another module's private name read at %s" % ", ".join(sorted(reads))


def _attribute_uses(tree, attr, path=()):
    """(qualname of the enclosing function or class, line, whether it
    binds the attribute) for each `<expr>.<attr>` in a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_uses(node, attr, path + (node.name,))
            continue
        if isinstance(node, ast.Attribute) and node.attr == attr:
            yield ".".join(path), node.lineno, isinstance(node.ctx, ast.Store)
        yield from _attribute_uses(node, attr, path)


def test_only_kept_writes_an_operators_store():
    """What an operator keeps is written by `jetcalc.kept` alone: no
    code under src/ touches `._kept` but that function and the binding
    of the empty store in `DiffOp._fill`, and `_kept` is the only
    underscore slot of `DiffOp`."""
    assert list(_attribute_uses(ast.parse(
        "class A:\n    def f(self):\n        self._kept = {}\n"
        "def g(h):\n    h._kept[1] = 2\n    return h._kept.get(1)\n"
    ), "_kept")) == [("A.f", 3, True), ("g", 5, False), ("g", 6, False)]
    jetcalc = os.path.join(ROOT, "src", "jetforge", "jetcalc.py")
    allowed = {(jetcalc, "kept", False), (jetcalc, "DiffOp._fill", True)}
    stray = ["%s:%d in %s" % (os.path.relpath(path, ROOT), line, where or "module")
             for path, tree in _parse_all(os.path.join("src", "jetforge")).items()
             for where, line, binds in _attribute_uses(tree, "_kept")
             if (path, where, binds) not in allowed]
    assert not stray, "._kept used outside jetcalc.kept at %s" % ", ".join(sorted(stray))
    with open(jetcalc, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    diffop = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DiffOp")
    slots = next(ast.literal_eval(n.value) for n in diffop.body if isinstance(n, ast.Assign)
                 and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["__slots__"])
    assert [s for s in slots if s.startswith("_")] == ["_kept"]


def test_only_batch_at_writes_a_memo():
    """The one-entry memo of a `symexpr.Batch` is written by `Batch.at`
    alone: no code under src/ binds an attribute `memo` but that method
    and `Batch.__init__`, which sets it to None."""
    symexpr = os.path.join(ROOT, "src", "jetforge", "symexpr.py")
    trees = _parse_all(os.path.join("src", "jetforge"))
    binds = {(path, where): line for path, tree in trees.items()
             for where, line, binds in _attribute_uses(tree, "memo") if binds}
    stray = ["%s:%d in %s" % (os.path.relpath(path, ROOT), line, where or "module")
             for (path, where), line in binds.items()
             if (path, where) not in {(symexpr, "Batch.at"), (symexpr, "Batch.__init__")}]
    assert not stray, ".memo bound outside Batch.at at %s" % ", ".join(sorted(stray))
    batch = next(n for n in trees[symexpr].body if isinstance(n, ast.ClassDef) and n.name == "Batch")
    init = next(n for n in batch.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    assert [ast.unparse(n) for n in ast.walk(init) if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Attribute) and t.attr == "memo" for t in n.targets)] \
        == ["self.memo = None"]
