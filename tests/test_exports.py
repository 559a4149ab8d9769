"""Every exported name resolves, no module exports a name twice, each
name the package re-exports is exported by the module it comes from, no
module imports a name it never uses, every distance and every score goes
through its one kernel, one function round-trips and scores a heatmap map,
all JSON input goes through its one reader, one function decides what a
JSON integer is, configs check values only through the rules in datasets,
no private definition is left that only tests read, only the console entry
point ends the process itself or tunes the allocator, one function writes
to stdout, one reports errors, and every file is written as UTF-8."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import subpix
import subpix.bench

MODULES = ["subpix"] + [f"subpix.{m.name}" for m in pkgutil.iter_modules(subpix.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_exported_by_their_module():
    tree = ast.parse(Path(subpix.__file__).read_text())
    source = {alias.asname or alias.name: node.module
              for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    assert set(subpix.__all__) - set(source) == {"__version__"}
    missing = [f"{source[n]}.{n}" for n in subpix.__all__ if n in source
               and n not in importlib.import_module(f"subpix.{source[n]}").__all__]
    assert missing == []


# an unused import must say why it stays: "# noqa: F401" and then a reason
_NOQA_WITH_REASON = re.compile(r"#\s*noqa:\s*F401\b\W*\w")


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    """Each module-level import is used in its module, listed in its
    ``__all__``, or marked ``# noqa: F401`` with a reason."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any(_NOQA_WITH_REASON.search(line)
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported and not marked:
                dead.append(f"{path.name}:{node.lineno}: {name}")
    assert dead == []


# a name that is hypot, or linalg's norm, however it is reached or imported
_DISTANCE_KERNEL = re.compile(r"(^|\.)(hypot|linalg\.norm)$")


def _uses(tree: ast.AST, pattern: re.Pattern) -> list[str]:
    """Each use or import in a parsed module of a name that ``pattern`` matches."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
        elif isinstance(node, ast.Import):
            names += [(node.lineno, a.name) for a in node.names]
    return [f"{line}: {name}" for line, name in names if pattern.search(name)]


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_point_distance_kernel(path):
    """Every landmark error goes through ``metrics.point_distances``: no
    module calls or imports ``hypot`` or ``linalg.norm``, a second distance
    kernel with its own last bits and its own cost."""
    assert _uses(ast.parse(path.read_text()), _DISTANCE_KERNEL) == []


def test_distance_kernel_scan_sees_each_spelling():
    spellings = ["np.hypot(a, b)", "math.hypot(a, b)", "hypot(a, b)", "f = np.hypot",
                 "np.linalg.norm(d, axis=1)", "numpy.linalg.norm(d)", "linalg.norm(d)",
                 "from numpy.linalg import norm", "from math import hypot as h"]
    assert [s for s in spellings if not _uses(ast.parse(s), _DISTANCE_KERNEL)] == []
    # prose and unrelated names pass
    assert _uses(ast.parse('"""np.hypot"""\n# linalg.norm\nnorm = hypotenuse'),
                 _DISTANCE_KERNEL) == []


# the per-image errors and the CED kernels, which only bench.score_images calls,
# and the mean that function replaced, however each is reached or imported
_SCORING_KERNEL = re.compile(r"(^|\.)(image_errors|ced_auc|failure_rate|ced_points|mean_nme)$")
# the package re-exports the CED kernels as public API and does nothing else with them
_REEXPORTED = {"metrics.ced_auc", "metrics.ced_points", "metrics.failure_rate"}


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_scorer(path):
    """``bench-ideal`` and ``metrics`` score through ``bench.score_images``
    alone: no other module calls or imports ``image_errors``, ``ced_auc``,
    ``failure_rate`` or ``ced_points``, which would be a second scoring path
    with its own refusal rule, and no module names ``mean_nme``."""
    found = _uses(ast.parse(path.read_text()), _SCORING_KERNEL)
    if path.name == "bench.py":
        found = [f for f in found if f.endswith("mean_nme")]
    elif path.name == "__init__.py":
        found = [f for f in found if f.split(": ")[1] not in _REEXPORTED]
    assert found == []


def test_mean_nme_is_gone():
    assert [m for m in MODULES if hasattr(importlib.import_module(m), "mean_nme")] == []


def test_scorer_scan_sees_each_spelling():
    spellings = ["image_errors(gt, pred, d)", "metrics.ced_auc(e, t)", "f = ced_points",
                 "subpix.metrics.failure_rate(e, t)", "from .metrics import ced_auc",
                 "from subpix.metrics import image_errors as errors",
                 "from .metrics import (MetricsConfig,\n    failure_rate)",
                 "from . import metrics\nmetrics.ced_points(e)", "mean_nme(ids, nme, bad)",
                 "from .metrics import mean_nme"]
    assert [s for s in spellings if not _uses(ast.parse(s), _SCORING_KERNEL)] == []
    # prose, and names that only contain a kernel's, pass
    assert _uses(ast.parse('"""ced_auc"""\n# image_errors\nced_points_x = failure_rates'),
                 _SCORING_KERNEL) == []


# the round trip and the scorer of a heatmap map, however each is reached
_ROUNDTRIP = re.compile(r"(^|\.)ideal_roundtrip$")
_SCORER = re.compile(r"(^|\.)score_images$")


def _users(tree: ast.Module, pattern: re.Pattern) -> list[str]:
    """The module-level statements of a parsed module, imports aside, that use
    a name ``pattern`` matches: a function or class by its name, else its line."""
    return [getattr(node, "name", f"line {node.lineno}") for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom)) and _uses(node, pattern)]


def test_one_roundtrip_and_score_per_map():
    """``bench-ideal``'s round trip, move check, back-mapping and scoring run
    in ``bench._roundtrip_scores`` alone, so a caller with another raw ->
    heatmap map calls it rather than copying the loop: inside ``bench`` only
    it and ``run_montecarlo`` use ``ideal_roundtrip``, only it uses
    ``score_images`` or a map's ``inverse``, and ``run_ideal`` uses none."""
    tree = ast.parse(Path(subpix.bench.__file__).read_text())
    assert _users(tree, _ROUNDTRIP) == ["_roundtrip_scores", "run_montecarlo"]
    assert _users(tree, _SCORER) == ["_roundtrip_scores"]
    assert _users(tree, re.compile(r"\.inverse$")) == ["_roundtrip_scores"]


def test_roundtrip_and_score_scan_sees_each_spelling():
    either = re.compile(f"{_ROUNDTRIP.pattern}|{_SCORER.pattern}")
    spellings = {"def f():\n    ideal_roundtrip(p, c)": ["f"],
                 "def f():\n    return codec.ideal_roundtrip(p, c)": ["f"],
                 "def f():\n    g = subpix.codec.ideal_roundtrip\n    g(p, c)": ["f"],
                 "async def f():\n    return [score_images(*a) for a in args]": ["f"],
                 "def f():\n    def g():\n        score_images(a)\n    g()": ["f"],
                 "class C:\n    def m(self):\n        return ideal_roundtrip(p, c)": ["C"],
                 "x = 1\nscore = lambda a: bench.score_images(*a)": ["line 2"]}
    assert {text: _users(ast.parse(text), either) for text in spellings} == spellings
    # imports, prose and names that only contain a kernel's pass
    assert _users(ast.parse('from .codec import ideal_roundtrip\nimport score_images\n'
                            'def f():\n    """ideal_roundtrip"""\n    # score_images\n'
                            '    ideal_roundtrips = score_images_x = 1'), either) == []


# a JSON parse, however it is reached or imported: json.load(s) or a decoder object
_JSON_PARSE = re.compile(r"(^|\.)(loads?|JSONDecoder)$")


def _json_parses(path: Path) -> list[str]:
    """Each JSON parse in a module, outside the body of ``datasets.json_object``."""
    tree = ast.parse(path.read_text())
    found = _uses(tree, _JSON_PARSE)
    if path.name == "datasets.py":
        (reader,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "json_object"]
        allowed = _uses(reader, _JSON_PARSE)
        assert [f.split(": ")[1] for f in allowed] == ["json.loads"], allowed
        found = [f for f in found if f not in allowed]
    return found


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_json_reader(path):
    """Payloads and canonical files parse through ``datasets.json_object``
    alone: no other code calls or imports ``json.loads``, ``json.load`` or a
    ``JSONDecoder``, each a second place to decide what a bad document is."""
    assert _json_parses(path) == []


def test_json_reader_scan_sees_each_spelling():
    spellings = ["json.loads(text)", "json.load(f)", "f = json.loads", "loads(text)",
                 "from json import loads", "from json import load as read",
                 "import json as j\nj.loads(text)", "json.JSONDecoder().decode(text)",
                 "from json import JSONDecoder"]
    assert [s for s in spellings if not _uses(ast.parse(s), _JSON_PARSE)] == []
    # prose, writers and names that only contain a parser's pass
    assert _uses(ast.parse('"""json.loads"""\n# json.load\njson.dumps(d)\n'
                           'load_canonical(p)\nunloads = 1'), _JSON_PARSE) == []


def _int_type_checks(tree: ast.AST) -> list[str]:
    """Each comparison in a parsed module of a ``type(...)`` call with ``int``,
    bare or among a tuple, list or set of types."""
    def is_type_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type")

    def names_int(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(n, ast.Name) and n.id == "int" for n in items)

    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(map(is_type_call, [node.left, *node.comparators]))
            and any(map(names_int, [node.left, *node.comparators]))]


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_json_integer_rule(path):
    """What a JSON integer is (``true`` and ``64.0`` are not) is decided in
    ``datasets.json_int`` alone: no other code compares ``type(...)`` with
    ``int``, a second place for that rule to drift."""
    tree = ast.parse(path.read_text())
    found = _int_type_checks(tree)
    if path.name == "datasets.py":
        (rule,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "json_int"]
        allowed = _int_type_checks(rule)
        assert len(allowed) == 1, allowed
        found = [f for f in found if f not in allowed]
    assert found == []


def test_json_integer_scan_sees_each_spelling():
    spellings = ["type(v) is int", "type(v) is not int", "type(v) == int", "type(v) != int",
                 "int is type(v)", "type(v) in (int, float)", "type(v) not in {bool, int}",
                 "ok = n > 0 and type(n) is int", "if type(d['n']) is not int or d['n'] < 1:\n"
                 "    pass"]
    assert [s for s in spellings if not _int_type_checks(ast.parse(s))] == []
    # prose, other types, isinstance and int conversions pass
    assert _int_type_checks(ast.parse('"""type(v) is int"""\n# type(v) is int\n'
                                      'type(v) is float\nisinstance(v, int)\n'
                                      'int(v) == 3\ntype(v) is bool')) == []


# a finiteness test, however it is reached or imported, and a try statement
_FINITE = re.compile(r"(^|\.)isfinite$")
_TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))  # try/except* is Python 3.11+


def _config_checks(tree: ast.AST) -> list[str]:
    """Each use of ``isfinite`` and each ``try`` statement in the
    ``__post_init__`` of a class whose name ends in ``Config``."""
    inits = [node for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
             for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    return [found for init in inits for found in _uses(init, _FINITE)
            + [f"{node.lineno}: try" for node in ast.walk(init)
               if isinstance(node, _TRY)]]


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_config_values_checked_by_the_rules(path):
    """What a number, a pair, a count or a choice may be is decided by the
    rules in ``datasets`` (``json_float``, ``json_pair``, ``json_int`` and
    ``Choice``): no config's ``__post_init__`` tests finiteness itself or
    catches an error to word it again, a second place for a rule to drift."""
    assert _config_checks(ast.parse(path.read_text())) == []


def test_config_check_scan_sees_each_spelling():
    def in_config(body: str, cls: str = "CodecConfig", method: str = "__post_init__") -> str:
        lines = "".join(f"        {line}\n" for line in body.splitlines())
        return f"class {cls}:\n    def {method}(self):\n{lines}"

    spellings = ["np.isfinite(self.sigma)", "math.isfinite(x)", "numpy.isfinite(x).all()",
                 "isfinite(x)", "ok = np.isfinite", "from math import isfinite",
                 "try:\n    f()\nexcept ValueError:\n    pass",
                 "try:\n    f()\nfinally:\n    g()",
                 "for k in keys:\n    if not np.isfinite(getattr(self, k)):\n        raise E",
                 "def check():\n    try:\n        f()\n    except E:\n        pass"]
    if hasattr(ast, "TryStar"):
        spellings.append("try:\n    f()\nexcept* TypeError:\n    pass")
    assert [s for s in spellings if not _config_checks(ast.parse(in_config(s)))] == []
    # another method, another class, prose and names that only contain one pass
    assert _config_checks(ast.parse(
        in_config("try:\n    f()\nexcept E:\n    pass", method="for_scheme")
        + in_config("np.isfinite(x)", cls="EncodedSample")
        + in_config('"""np.isfinite, try:"""\n# isfinite\nisfinite_x = retry = 1'))) == []


def _private_defs(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The module-level functions, classes and constants named ``_x`` (not dunders)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def _orphans(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions that no code reads, outside the definition itself."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _private_defs(tree) if reads[name] == _reads(node)[name]]


def test_no_orphaned_private_definitions():
    """Every private module-level function, class or constant in the package
    is read by the package itself, not only by tests: a fold or a deletion
    leaves no helper behind."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(subpix.__file__).parent.glob("*.py"))}
    assert sum(len(_private_defs(t)) for t in trees.values()) > 0
    assert _orphans(trees) == []


def test_orphan_scan_sees_each_form():
    tree = ast.parse("def _a():\n    pass\n\ndef _b(n):\n    return _b(n - 1)\n\n"
                     "class _C:\n    pass\n\n_D = 1\n_E: int = 2\n__all__ = []\n"
                     "def _used():\n    return _E\n\nx = _used() + obj._unused_attr")
    assert _orphans({"m.py": tree}) == ["m.py: _a", "m.py: _b", "m.py: _C", "m.py: _D"]


# ending the process or reaching the C allocator, however each is reached or imported
_PROCESS_END = re.compile(r"(^|\.)(_exit|atexit|ctypes|mallopt)(\.|$)")
# cli.entry and the one helper it calls to set the allocator
_PROCESS_OWNERS = ("entry", "_tune_allocator")


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_process_end_only_in_entry(path):
    """``os._exit``, ``atexit``, ``ctypes`` and ``mallopt`` appear in
    ``cli.entry`` and ``cli._tune_allocator`` alone, which ``entry`` calls:
    ``main`` and every in-process caller keep the interpreter's own exit and
    the C library's default allocator."""
    tree = ast.parse(path.read_text())
    found = _uses(tree, _PROCESS_END)
    if path.name == "cli.py":
        owners = {node.name: node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in _PROCESS_OWNERS}
        assert sorted(owners) == sorted(_PROCESS_OWNERS)
        assert _uses(owners["entry"], re.compile(r"^_tune_allocator$")) != []
        found = [f for f in found if f not in {u for node in owners.values()
                                               for u in _uses(node, _PROCESS_END)}]
    assert found == []


def test_process_end_scan_sees_each_spelling():
    spellings = ["os._exit(rc)", "from os import _exit", "f = os._exit", "import atexit",
                 "import atexit as ax", "atexit.register(f)", "atexit._run_exitfuncs()",
                 "from atexit import register", "import ctypes", "import ctypes.util",
                 "from ctypes import CDLL", "ctypes.CDLL(None).mallopt(-1, 0)",
                 "libc.mallopt(-3, 1 << 20)", "m = getattr(libc, 'x').mallopt"]
    assert [s for s in spellings if not _uses(ast.parse(s), _PROCESS_END)] == []
    # prose, the interpreter's own exits and names that only contain one pass
    assert _uses(ast.parse('"""os._exit"""\n# atexit\nsys.exit(0)\nexit_code = 1\n'
                           'atexits = ctypes_like = mallopts = 1\nos.exit(0)'),
                 _PROCESS_END) == []


# stdout, however it is reached or imported, and the print and write_text calls
_STDOUT = re.compile(r"(^|\.)(stdout|__stdout__)(\.|$)")
_PRINT = re.compile(r"(^|\.)print$")
_WRITE_TEXT = re.compile(r"(^|\.)write_text$")
# the error reporter, however it is reached or imported
_REPORTER = re.compile(r"(^|\.)_report_error$")


def _calls_lacking(tree: ast.AST, callee: re.Pattern, keyword: str, value: str) -> list[str]:
    """Each call in a parsed module of a name ``callee`` matches that does not
    pass ``keyword=value``, the value as its source text."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee.search(ast.unparse(node.func))
            and not any(kw.arg == keyword and ast.unparse(kw.value) == value
                        for kw in node.keywords)]


def _stdout_writes(tree: ast.AST) -> list[str]:
    """Each use of stdout in a parsed module, and each print not sent to stderr."""
    return _uses(tree, _STDOUT) + _calls_lacking(tree, _PRINT, "file", "sys.stderr")


def _functions(tree: ast.Module, *names: str) -> list[ast.FunctionDef]:
    """The module-level functions of these names, in the order named."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return [defs[name] for name in names]


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_stdout_writer(path):
    """Reports and help text reach stdout through ``cli._write_out`` alone,
    which turns every failed write into one error: no other code names
    ``sys.stdout`` or prints anywhere but to stderr. ``cli.entry`` names
    ``sys.stdout`` once, as a stream it flushes."""
    tree = ast.parse(path.read_text())
    found = _stdout_writes(tree)
    if path.name == "cli.py":
        writer, entry = _functions(tree, "_write_out", "entry")
        flushed = _uses(entry, _STDOUT)
        assert [f.split(": ")[1] for f in flushed] == ["sys.stdout"]
        found = [f for f in found if f not in _uses(writer, _STDOUT) + flushed]
    assert found == []


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_error_reporter(path):
    """``cli.main`` alone calls ``_report_error``, so an error is reported
    once; ``cli.entry`` leaves ``sys.argv`` to ``main``."""
    tree = ast.parse(path.read_text())
    found = _uses(tree, _REPORTER)
    if path.name == "cli.py":
        main, entry = _functions(tree, "main", "entry")
        assert _uses(main, _REPORTER) != []
        assert _uses(entry, re.compile(r"(^|\.)argv$")) == []
        found = [f for f in found if f not in _uses(main, _REPORTER)]
    assert found == []


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_files_written_as_utf8(path):
    """Every ``write_text`` passes ``encoding="utf-8"``, the encoding every
    reader requires, rather than the locale's."""
    assert _calls_lacking(ast.parse(path.read_text()), _WRITE_TEXT, "encoding",
                          "'utf-8'") == []


def test_output_scans_see_each_spelling():
    writes = ["sys.stdout.write(t)", "sys.stdout.buffer.write(b)", "from sys import stdout",
              "f = sys.stdout", "json.dump(d, sys.stdout)", "sys.__stdout__.write(t)",
              "print(t)", "print(t, file=sys.stdout)", "print(t, file=f)",
              "builtins.print(t, end='')", "print(*lines, sep='\\n')"]
    assert [s for s in writes if not _stdout_writes(ast.parse(s))] == []
    reports = ["_report_error(exc)", "cli._report_error(exc, internal=True)",
               "from .cli import _report_error", "report = _report_error"]
    assert [s for s in reports if not _uses(ast.parse(s), _REPORTER)] == []
    unencoded = ["Path(p).write_text(t)", "p.write_text(t, encoding='ascii')",
                 "p.write_text(t, 'utf-8')", "p.write_text(t, errors='strict')"]
    assert [s for s in unencoded
            if not _calls_lacking(ast.parse(s), _WRITE_TEXT, "encoding", "'utf-8'")] == []
    # prose, stderr, names that only contain one, and UTF-8 writes pass
    assert _stdout_writes(ast.parse('"""sys.stdout.write"""\n# print(t)\n'
                                    'print(t, file=sys.stderr)\nsys.stderr.write(t)\n'
                                    'pprint.pprint(d, stream=s)\nstdouts = printer = 1')) == []
    assert _uses(ast.parse('"""_report_error"""\nreport_error(e)\n_report_errors = 1'),
                 _REPORTER) == []
    assert _calls_lacking(ast.parse('p.write_text(t, encoding="utf-8")\np.write_bytes(b)'),
                          _WRITE_TEXT, "encoding", "'utf-8'") == []
