"""The library API is the list in the README, and nothing public lies unused.

`bandgroup.__all__` must name exactly the names listed between the
`library-api` markers of `README.md`.  Every other public top-level function
or class in `src/bandgroup/` (the command line aside) must be called from
somewhere else in `src/`, outside its own definition, so a helper that
loses its last caller fails here instead of lingering as a second route.

Methods are held to the same rule: every public method or property of a
top-level class outside the command line must be read as an attribute
somewhere in `src/` or in the acceptance criteria, outside its own
definition.  The check goes by attribute name alone, so a method escapes
it when a method of another class with the same name is called.
`ArtinWord.identity`, `Permutation.inverse` and `RaagExpression.of` were
such escapes (`Permutation.identity`, since deleted, `ArtinWord.inverse`
and `Partition.of` were called) and were deleted by hand.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import bandgroup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bandgroup"
CRITERIA = ROOT / "tests" / "test_acceptance.py"


def _readme_api():
    text = (ROOT / "README.md").read_text()
    section = re.search(r"<!-- library-api:begin -->(.*?)<!-- library-api:end -->", text, re.S)
    assert section, "README.md has no library-api section"
    return re.findall(r"^- `(\w+)`", section.group(1), re.M)


def _names_used(tree, skip=None):
    """Every name and attribute read in tree, outside the node skip."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_all_is_the_readme_list():
    listed = _readme_api()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(bandgroup.__all__) == sorted(listed)
    for name in bandgroup.__all__:
        assert hasattr(bandgroup, name), name


def test_every_public_definition_is_exported_or_called():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    del trees["__init__.py"]
    unused = []
    for module, tree in trees.items():
        if module == "cli.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in bandgroup.__all__:
                continue
            if not any(
                node.name in _names_used(other, node if name == module else None)
                for name, other in trees.items()
            ):
                unused.append(f"{module}: {node.name}")
    assert not unused, unused


def _attributes(node):
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_is_called():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    read = _attributes(ast.parse(CRITERIA.read_text()))
    for tree in trees.values():
        read += _attributes(tree)
    unused = []
    for module, tree in trees.items():
        if module == "cli.py":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if read[node.name] == _attributes(node)[node.name]:
                    unused.append(f"{module}: {cls.name}.{node.name}")
    assert not unused, unused
