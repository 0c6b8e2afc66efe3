"""Source hygiene of the package, read with ``ast`` (stdlib only).

Every imported name is used, every import of the package itself sits at
module level (outside cli.py), and every private module-level function or
class is referenced somewhere in the package outside its own definition:
a helper that nothing calls any more fails here instead of lingering.
Likewise every public function, class or method is read somewhere in
the package, the tests or perfbench outside its own definition.
No local is only ever filled: one bound by a plain assignment must be
read other than as the receiver of a statement-level ``.append``,
``.extend``, ``.add`` or ``.update``.
The package has no ``assert`` statement, since ``python -O`` drops them.
No module imports ``dataclasses``: records are plain classes with
``__slots__``, and one record style keeps start-up free of ``inspect``.
The README's caps table lists exactly the package's ``*_CAP`` constants,
and every name it puts in backticks is one of the repo's.
A nerve face is built from tuple slices only in the brute-force twins:
``Nerve.faces`` grows by index arithmetic, so the twins stay independent.
No code in the package or the tests stores into ``X.a[...]``: a matrix's
dense rows are a copy built on demand, so such a write is lost.  In the
package only ``IntMatrix.__repr__`` reads them: every elimination, the
core's Smith form too, works on the sparse columns.
The CLI's ``--variant`` offers exactly ``cohomology.VARIANTS``, and only
the three entry points it calls and the one helper that resolves a
variant take one: classical cohomology is the zero nerve of S^0.
Searches and closures run through ``semigroups.backtrack`` and
``semigroups.closure``: no function calls itself except ``backtrack``'s
inner ``extend``, and no other function binds a ``frontier``.
"""

import argparse
import ast
import re
from pathlib import Path

from zerocohom.cli import build_parser
from zerocohom.cohomology import VARIANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerocohom"


def _modules():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _referenced(node):
    """The names a node reads: bare names, attributes and from-imports."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return {ast.literal_eval(e) for e in stmt.value.elts}
    return set()


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                for a in n.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_private_helper_is_referenced():
    trees = _modules()
    # (module, top-level name or None, names read by that statement)
    reads = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            reads.append((mod, getattr(stmt, "name", None), _referenced(stmt)))
    dead = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names and (m, owner) != (mod, name) for m, owner, names in reads):
                dead.append(f"{mod}: {name}")
    assert not dead, dead


def _units(path):
    """(path, class or None, name or None, statement) for each top-level
    statement of a file, a class split into the statements of its body."""
    for stmt in ast.parse(path.read_text(), str(path)).body:
        if isinstance(stmt, ast.ClassDef):
            yield from ((path, stmt.name, getattr(s, "name", None), s) for s in stmt.body)
        else:
            yield (path, None, getattr(stmt, "name", None), stmt)


def test_every_public_name_is_read():
    # a public function, class or method that nothing in the package, the
    # tests or the benchmark reads outside its own definition is dead; the
    # definition of a class covers its body
    files = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    reads = [(p, c, n, _referenced(stmt)) for path in files for p, c, n, stmt in _units(path)]
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for _, cls, name, stmt in _units(path):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or name.startswith("_"):
                continue
            outside = [
                names
                for p, c, n, names in reads
                if p != path or ((c, n) != (cls, name) and not (cls is None and c == name))
            ]
            if not any(name in names for names in outside):
                dead.append(f"{path.name}: {name}" if cls is None else f"{path.name}: {cls}.{name}")
    assert not dead, dead


def _imports_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "zerocohom"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "zerocohom" for a in node.names)


def test_package_imports_are_at_module_level():
    # cli.py defers its imports to keep start-up fast
    nested = set()
    for name, tree in _modules().items():
        if name == "cli.py":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(f"{name}:{n.lineno}" for n in ast.walk(fn) if _imports_package(n))
    assert not nested, sorted(nested)


def test_no_module_imports_dataclasses():
    found = []
    for name, tree in _modules().items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                found += [f"{name}:{n.lineno}" for a in n.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "dataclasses":
                found.append(f"{name}:{n.lineno}")
    assert not found, found


def _own_nodes(fn):
    """The nodes of a function's body, not descending into nested scopes."""
    todo = list(fn.body)
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))


def test_no_write_only_locals():
    filled_only = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                t.id for n in _own_nodes(fn) if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)
            }
            # the Name nodes that are only the receiver of a collecting call
            receivers = {
                id(n.value.func.value)
                for n in ast.walk(fn)
                if isinstance(n, ast.Expr)
                and isinstance(n.value, ast.Call)
                and isinstance(n.value.func, ast.Attribute)
                and n.value.func.attr in ("append", "extend", "add", "update")
                and isinstance(n.value.func.value, ast.Name)
            }
            reads = {}
            for n in ast.walk(fn):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.setdefault(n.id, []).append(id(n))
            for local in sorted(bound):
                if local in reads and receivers.issuperset(reads[local]):
                    filled_only.append(f"{name.removesuffix('.py')}.{fn.name}: {local}")
    assert not filled_only, filled_only


def test_no_assert_in_src():
    # a certification or shape check written as an assert vanishes under -O
    found = [f"{name}:{n.lineno}" for name, tree in _modules().items() for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, found


def test_readme_caps_table_lists_every_cap():
    caps = {}
    for name, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name) and t.id.endswith("_CAP"):
                        caps[t.id] = (name.removesuffix(".py"), ast.literal_eval(stmt.value))
    section = (ROOT / "README.md").read_text().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        # | `CONSTANT` | `module` | quantity | value such as 4,000,000 |
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 4 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = (cells[1].strip("`"), int(cells[-1].replace(",", "")))
    assert table == caps


# backticked words of the README that name no code of the repo: two
# stdlib modules, JSON's true, and an English word
README_PROSE = {"dis", "tokenize", "true", "forcing"}


def test_readme_names_resolve():
    # every backticked identifier or dotted name in the README is, part by
    # part, a module, an identifier or a string of src, tests or perfbench
    known = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            known.update(path.relative_to(ROOT / folder).with_suffix("").parts)
            for n in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    known.add(n.name)
                elif isinstance(n, ast.Name):
                    known.add(n.id)
                elif isinstance(n, ast.Attribute):
                    known.add(n.attr)
                elif isinstance(n, (ast.arg, ast.keyword)):
                    known.add(n.arg)
                elif isinstance(n, ast.alias):
                    known.update(n.name.split("."))
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    known.add(n.value)
    tokens = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", (ROOT / "README.md").read_text()))
    unknown = {t for t in tokens if not set(t.split(".")) <= known} - README_PROSE
    assert not unknown, sorted(unknown)


def _merges_neighbours(node):
    """A call x.mul(t[i], t[j]): two letters of one tuple multiplied together."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "mul"
        and len(node.args) == 2
        and all(isinstance(a, ast.Subscript) and not isinstance(a.slice, ast.Slice) for a in node.args)
        and len({ast.dump(a.value) for a in node.args}) == 1
    )


def test_faces_are_built_only_in_the_brute_twins():
    # a face such as t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2:] is a
    # concatenation of a slice and a tuple that merges two neighbours
    builders = set()
    for name, tree in _modules().items():
        for stmt in tree.body:
            for n in ast.walk(stmt):
                if not (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)):
                    continue
                sides = (n.left, n.right)
                merge = any(isinstance(x, ast.Tuple) and any(map(_merges_neighbours, x.elts)) for x in sides)
                sliced = any(isinstance(x, ast.Subscript) and isinstance(x.slice, ast.Slice) for x in sides)
                if merge and sliced:
                    builders.add(f"{name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert builders == {"cohomology.py:_coboundary_at", "cohomology.py:_brute_cocycles"}


def _into_dense_rows(target):
    """A store target X.a[...] (at any depth of subscripts), inside tuples too."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_into_dense_rows(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _into_dense_rows(target.value)
    if not isinstance(target, ast.Subscript):
        return False
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "a"


def test_no_store_into_dense_rows():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    stores = []
    for path in files:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Assign):
                targets = n.targets
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                targets = [n.target]
            elif isinstance(n, ast.Delete):
                targets = n.targets
            else:
                continue
            if any(map(_into_dense_rows, targets)):
                stores.append(f"{path.name}:{n.lineno}")
    assert not stores, stores


def test_only_repr_reads_dense_rows():
    readers = set()
    for name, tree in _modules().items():
        reads = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "a"}
        for qual, fn in _functions(tree):
            inside = {id(n) for n in _own_nodes(fn)} & reads
            if inside:
                readers.add(f"{name}:{qual}")
                reads -= inside
        if reads:
            readers.add(f"{name}:<module>")
    assert readers == {"abgroups.py:IntMatrix.__repr__"}


def _subcommand(parser, name):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[name]


def test_cli_variant_choices_are_the_cohomology_variants():
    ap = build_parser()
    for cohom in (_subcommand(ap, "cohom"), _subcommand(_subcommand(ap, "oracle"), "cohom")):
        (variant,) = [a for a in cohom._actions if a.dest == "variant"]
        assert tuple(variant.choices) == VARIANTS


def _functions(tree, prefix=""):
    """(qualified name, node) for every function, nested ones as outer.inner."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def test_searches_and_closures_run_through_the_shared_loops():
    # a hand-rolled depth-first search recurses and a hand-rolled worklist
    # closure keeps a frontier; Nerve grows a level from the stored one below
    recursive, frontiers = set(), set()
    for name, tree in _modules().items():
        mod = name.removesuffix(".py")
        for qual, fn in _functions(tree):
            short = qual.rsplit(".", 1)[-1]
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == short for n in ast.walk(fn)):
                recursive.add(f"{mod}.{qual}")
            stores = {n.id for n in _own_nodes(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if "frontier" in stores:
                frontiers.add(f"{mod}.{qual}")
    assert recursive == {"semigroups.backtrack.extend"}
    assert frontiers == {"semigroups.closure"}


def test_only_the_entry_points_take_a_variant():
    # the em nerve of S is the zero nerve of S^0: one helper resolves a
    # variant, the entry points hand theirs to it, and nothing else in
    # the package branches on "em" or, in cohomology, adjoins a zero
    takes, em = set(), set()
    for name, tree in _modules().items():
        mod = name.removesuffix(".py")
        for qual, fn in _functions(tree):
            a = fn.args
            if "variant" in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
                takes.add(f"{mod}.{qual}")
            calls = {getattr(n.func, "id", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}
            if any(isinstance(n, ast.Constant) and n.value == "em" for n in ast.walk(fn)) or (
                mod == "cohomology" and "adjoin" in calls
            ):
                em.add(f"{mod}.{qual}")
    assert takes == {
        "cohomology.cohomology_group",
        "cohomology.brute_cohomology",
        "cohomology.witness_report",
        "cohomology._resolve_variant",
    }
    assert em == {"cohomology._resolve_variant"}
