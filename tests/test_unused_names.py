"""No code that only its own tests call: every top-level name and class
member defined in src/sbmimo is read somewhere in src/sbmimo, scripts/
or perfbench/ outside its own definition.

The scan parses those files with ast, so a comment that mentions a name
does not count as a read.  A read is a loaded name, an attribute, an
imported name, a keyword argument or a string constant that spells an
identifier (perfbench's TARGETS name the functions it wraps that way).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbmimo"
READERS = (SRC, ROOT / "scripts", ROOT / "perfbench")

# Names kept though no program code reads them, with the reason.
EXCEPTIONS = {}


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
