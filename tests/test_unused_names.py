"""No code that only its own tests call, checked by two scans of
src/sbmimo.

The name scan: every top-level name and class member defined in
src/sbmimo is read somewhere in src/sbmimo, scripts/ or perfbench/
outside its own definition.  It parses those files with ast, so a
comment that mentions a name does not count as a read.  A read is a
loaded name, an attribute, an imported name, a keyword argument or a
string constant that spells an identifier (perfbench's TARGETS name the
functions it wraps that way).

The reach scan: every statement of src/sbmimo runs on some command-line
path, or is in UNREACHED with the reason it stays (a refusal that
README's "Library use" reaches, or one whose removal would let some
input through to a silent wrong answer).  A tracer set before sbmimo is
imported, in a fresh process, records the lines that `cli_traffic` runs:
every golden config and perfbench workload, `python -m sbmimo --help`,
edge sweeps and every refusal some command line reaches.  A statement is
an ast statement, so Python versions that emit line events at other
lines of one statement still count it once.

Both stay: the name scan sees a constant or a dataclass field that no
program reads, though it runs at import; the reach scan sees a branch
that only tests reach, though the name of its function is read.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbmimo"
READERS = (SRC, ROOT / "scripts", ROOT / "perfbench")

# Names kept though no program code reads them, with the reason.
EXCEPTIONS = {}

# Statements that no command line reaches, kept with the reason, keyed by
# (module, the statement's first line, stripped); an entry covers every
# statement with its key.
UNREACHED = {
    # Type checks of a SweepConfig built in code: the CLI passes tuples
    # and an SBParams.
    ("bench", "return None"):
        "_items' two: a string or a scalar snr_db or detectors from code",
    ("bench", 'raise ValueError(f"snr_db must hold numbers, got '
              '{self.snr_db!r}")'):
        "a string snr_db would be swept per character",
    ("bench", 'raise ValueError(f"sb must be an SBParams, got {self.sb!r}")'):
        "any other sb fails in the sweep with no setting named",
    # Refusals that Library use reaches, or whose removal lets a wrong
    # answer through; the CLI refuses first or never builds the input.
    ("channel", 'raise ValueError(f"need nt >= 1, got {nt}")'):
        "noise_variance_for_snr at nt = 0 would give a zero noise variance",
    ("channel", "raise ValueError("):
        "realify: one y beside a stack of H would be broadcast over it",
    ("channel", 'raise ValueError(f"need nt, nr >= 1, got nt = {nt}, '
                'nr = {nr}")'):
        "sample_instance is a Library use entry point",
    ("ising", "raise ValueError("):
        "an unstacked IsingModel would broadcast in energy and solve",
    ("reduction", "raise ValueError("):
        "regularize: an (n,) anchor would broadcast over the block",
    ("sb", 'raise ValueError("a block needs a stack of same-size models '
           'and one "'):
        "solve: a short seeds list would run on uninitialised rows",
    ("detectors", 'raise ValueError("a block needs a stack of same-size '
                  'models and one "'):
        "sb_solve, a Library use entry point: seeds or trace of a wrong length",
    ("detectors", 'raise ValueError(f"{self.model.n} spins exceed the '
                  'oracle limit "'):
        "ml_oracle, a Library use entry point, past 2^24 leaves",
    # Paths of inputs that only code builds.
    ("detectors", "return None"):
        "the lookup of an undecided instance; the sweep reads decided ones",
    ("detectors", "ok[b] = False"):
        "MMSE's lstsq failing: prepare given a NaN in H, at a singular Gram",
    ("sb", "model, seeds = model[block], [seeds[b] for b in block]"):
        "a block that mixes field-only and coupled models",
}


def reads(tree) -> Counter:
    """How often each name is read in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            out[node.arg] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def defined(node):
    """The names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_names(src=SRC, readers=READERS) -> dict:
    """Each name defined in src read nowhere in readers outside its own
    definition, as "module.name" or "module.Class.name" -> name."""
    trees = {path: ast.parse(path.read_text())
             for where in readers for path in sorted(where.rglob("*.py"))}
    total = sum(map(reads, trees.values()), Counter())
    unread = {}
    for path, tree in trees.items():
        if path.parent != src:
            continue
        stmts = [(node, "") for node in tree.body]
        stmts += [(member, node.name + ".") for node in tree.body
                  if isinstance(node, ast.ClassDef) for member in node.body]
        for stmt, owner in stmts:
            for name in defined(stmt):
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and total[name] == reads(stmt)[name]:
                    unread[f"{path.stem}.{owner}{name}"] = name
    return unread


def test_every_src_name_is_read_by_program_code():
    unread = unread_names()
    assert sorted(set(unread.values())) == sorted(EXCEPTIONS), (
        f"read only by tests, or no longer an exception: {unread}"
    )


def test_scan_finds_an_unread_name(tmp_path):
    # A module-level helper that reads only itself, a class nothing
    # reads and that class's member are all found; a name read by
    # another reader module is not.
    pkg = tmp_path / "sbmimo"
    pkg.mkdir()
    (pkg / "extra.py").write_text(
        "LIMIT = 3\n\n\n"
        "def orphan_helper():\n"
        "    return orphan_helper\n\n\n"
        "class Holder:\n"
        "    orphan_field: int = 0\n"
    )
    user = tmp_path / "scripts"
    user.mkdir()
    (user / "use.py").write_text("from sbmimo.extra import LIMIT\n")
    assert unread_names(pkg, (pkg, user)) == {
        "extra.orphan_helper": "orphan_helper",
        "extra.Holder": "Holder",
        "extra.Holder.orphan_field": "orphan_field",
    }


def own_lines(stmt) -> range:
    """The lines of a statement itself: a compound statement's header,
    from its first decorator to the line before its body, else all of
    its lines."""
    def first(node):
        return min([node.lineno]
                   + [d.lineno for d in getattr(node, "decorator_list", [])])

    body = getattr(stmt, "body", None)
    if isinstance(body, list):  # a compound statement
        return range(first(stmt), max(stmt.lineno, first(body[0]) - 1) + 1)
    return range(first(stmt), stmt.end_lineno + 1)


def unreached(root, lines: dict) -> list:
    """Each statement of the modules in root in whose own lines no line
    of lines (file name -> lines run) falls, as (module, its first line
    stripped), in file and line order.  A string constant alone, such as
    a docstring, is no statement: it compiles to nothing to run."""
    found = []
    for path in sorted(Path(root).glob("*.py")):
        text = path.read_text().splitlines()
        ran = set(lines.get(path.name, ()))
        stmts = sorted(
            (node for node in ast.walk(ast.parse("\n".join(text)))
             if isinstance(node, ast.stmt)
             and not (isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, str))),
            key=lambda node: node.lineno,
        )
        found += [(path.stem, text[stmt.lineno - 1].strip())
                  for stmt in stmts if ran.isdisjoint(own_lines(stmt))]
    return found


def reach_findings(root, lines: dict, record: dict) -> tuple[list, list]:
    """The statements that no line of lines reaches and that record does
    not hold, and the record's entries that match no such statement."""
    found = unreached(root, lines)
    return ([key for key in found if key not in record],
            [key for key in record if key not in found])


def record_lines(package: str, traffic: str, out: str, *args) -> None:
    """Run this module's function traffic(*args) with a tracer set before
    package is imported, and write to out, as JSON, the package's
    directory and the lines run in each of its files."""
    root = os.path.dirname(importlib.util.find_spec(package).origin)
    prefix = root + os.sep
    lines = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        globals()[traffic](*args)
    finally:
        sys.settrace(None)
    ran = {os.path.relpath(f, root): sorted(v) for f, v in lines.items()}
    Path(out).write_text(json.dumps({"root": root, "lines": ran}))


def traced(tmp_path, package: str, traffic: str, *args) -> tuple:
    """record_lines in a fresh interpreter, which imports package as a
    program would (PYTHONPATH first): its directory and lines run."""
    out = tmp_path / "reach.json"
    boot = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from test_unused_names import record_lines; "
            "record_lines(*sys.argv[1:])")
    subprocess.run([sys.executable, "-c", boot, package, traffic, str(out),
                    *map(str, args)], check=True)
    found = json.loads(out.read_text())
    return found["root"], found["lines"]


def cli_traffic(tmp):
    """Every way a command line runs sbmimo, with perfbench's entry: the
    golden configs and the workloads, `python -m sbmimo --help`, edge
    sweeps, and each refusal some command line reaches, each asserted to
    exit as it should."""
    from sbmimo import cli

    tmp = Path(tmp)
    files = ["--out", tmp / "out.csv", "--trace", tmp / "trace.csv"]

    def run(argv, code=0):
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), \
                contextlib.redirect_stderr(quiet):
            got = cli.main([str(a) for a in argv])
        assert got == code, f"{argv} exited {got}: {quiet.getvalue()}"

    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        run(["--config", path, *files])
    for path in sorted((ROOT / "perfbench" / "workloads").glob("*.json")):
        run(["--config", path, *files])
        cli.parse_config(["--config", str(path)])
    sys.argv = ["sbmimo", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("sbmimo", run_name="__main__")
    except SystemExit as done:
        assert done.code == 0
    # The pool path needs two usable CPUs, so the host is said to have
    # two, whatever it has.
    os.sched_getaffinity = lambda pid: {0, 1}
    tiny = ["--nt", 1, "--nr", 1, "--mod", "bpsk", "--snr-list", 5]
    edges = [
        # Two blocks over two workers.
        ["--nt", 1, "--nr", 1, "--snr-list", "0,10", "--instances", 40,
         "--workers", 2],
        # A one-spin model, solved by its field alone, and its empty trace.
        [*tiny, "--instances", 2, "--detectors", "sb,sb-reg", *files],
        # Every restart diverges.
        ["--nt", 2, "--nr", 2, "--snr-list", 5, "--instances", 2,
         "--detectors", "sb,sb-reg", "--dt", 1e300, *files],
        # A singular MMSE Gram matrix: the per-instance solves and lstsq.
        ["--nt", 2, "--nr", 1, "--snr-list", 200, "--instances", 60,
         "--detectors", "mmse"],
        # One solver step, on a start:stop:step grid.
        ["--nt", 2, "--nr", 2, "--snr", "0:10:5", "--instances", 2,
         "--steps", 1, "--detectors", "sb"],
    ]
    for argv in edges:
        run(argv)
    run([*tiny, "--instances", 1, "--out", tmp / "missing" / "out.csv"], 1)
    refused = [
        ["--snr", "bad"], ["--snr", "a:b:c"], ["--snr", "5:1:1"],
        ["--snr", "0:inf:1"], ["--snr", "0:10:0"], ["--snr", "0:1e308:1e300"],
        ["--nt", "abc"], ["--nt", 0, "--dt", 0, "--restarts", 0],
        ["--mod", "foo"], ["--snr-list", 4000], ["--snr-list", "nan"],
        ["--seed", -1], ["--nt", 16, "--detectors", "ml-oracle"],
        ["--detectors", "zf"], ["--detectors", "mmse,mmse"],
        ["--snr-list", "5,5"], ["--config", tmp / "missing.json"],
    ]
    payloads = [
        '{"nt": 1, "nt": 2}', "not json", "[1]", '{"zf": 1}',
        '{"snr_list": [5], "snr-list": [5]}',
        '{"snr": "0:10:5", "snr_list": [5]}', '{"out": 5}',
        '{"snr_list": []}', '{"detectors": []}', '{"detectors": [1]}',
        '{"nt": 2.5}', '{"nt": true}', '{"dt": 1' + "0" * 400 + "}",
    ]
    for k, text in enumerate(payloads):
        path = tmp / f"refused{k}.json"
        path.write_text(text)
        refused.append(["--config", path])
    for argv in refused:
        run([*argv, "--instances", 1], 2)


def test_every_src_statement_runs_on_a_command_line_path(tmp_path):
    root, lines = traced(tmp_path, "sbmimo", "cli_traffic", tmp_path)
    missing, stale = reach_findings(root, lines, UNREACHED)
    assert not missing, f"reached by no command line, and not recorded: {missing}"
    assert not stale, f"recorded, but reached or gone: {stale}"


def toy_traffic():
    from toypkg import mod

    mod.used(1)


def test_scan_finds_an_unreached_statement(tmp_path, monkeypatch):
    # In a package of its own, traced as sbmimo is: the raise that no
    # call reaches is found once, though it spans three lines; the
    # four-line assignment that runs is not; a recorded statement is
    # not found, and an entry that matches nothing is stale.
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        '"""A module."""\n\n\n'
        "def used(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(\n"
        '            "negative"\n'
        "        )\n"
        "    total = (\n"
        "        x\n"
        "        + 1\n"
        "    )\n"
        "    return total\n\n\n"
        "def kept():\n"
        "    return 1\n"
    )
    path = [str(tmp_path), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))
    root, lines = traced(tmp_path, "toypkg", "toy_traffic")
    assert Path(root) == pkg
    record = {("mod", "return 1"): "kept", ("mod", "gone()"): "stale"}
    assert reach_findings(root, lines, record) == (
        [("mod", "raise ValueError(")], [("mod", "gone()")]
    )
