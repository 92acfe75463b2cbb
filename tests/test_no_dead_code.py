"""Every top-level function and class of `src/udbridge`, and every method
of its top-level classes, is referenced by name somewhere in the code of
`src/` or `perfbench/` outside its own definition, or is on a short
allow-list with the reason it stays. A reference is a name or an
attribute in the syntax tree; strings, such as the tracer's names, and
imports do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "udbridge"

# name -> why it stays although no code names it
ALLOWED = {
    "predict_attribute": "pinned by the tracer",
    "predict_with": "the float reference argmax, pinned by the tracer",
    "log_message": "an http.server override",
    "handle_expect_100": "an http.server override",
    "do_GET": "http.server calls do_<method>",
    "do_POST": "http.server calls do_<method>",
}

Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _definitions(tree: ast.Module) -> list[Definition]:
    """The module's top-level functions and classes, and the methods of
    those classes, dunder methods left out."""
    found = []
    for node in tree.body:
        if isinstance(node, Definition):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [
                item for item in node.body
                if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def _references(node: ast.AST, inside: tuple = ()) -> list[tuple[str, tuple]]:
    """(name, the definitions it sits in) of every name and attribute."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            out.append((child.id, inside))
        elif isinstance(child, ast.Attribute):
            out.append((child.attr, inside))
        out += _references(child, inside + (child,) if isinstance(child, Definition) else inside)
    return out


def _unreferenced() -> set[str]:
    definitions: list[Definition] = []
    references: list[tuple[str, tuple]] = []
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent == PACKAGE:
            definitions += _definitions(tree)
        references += _references(tree)
    named: dict[str, list[tuple]] = {}
    for name, inside in references:
        named.setdefault(name, []).append(inside)
    return {
        node.name for node in definitions
        if not any(node not in inside for inside in named.get(node.name, ()))
    }


def test_every_definition_is_referenced_or_allowed():
    unreferenced = _unreferenced()
    assert unreferenced - ALLOWED.keys() == set(), "referenced nowhere: remove or allow-list"
    assert ALLOWED.keys() - unreferenced == set(), "allow-listed but referenced or gone"
