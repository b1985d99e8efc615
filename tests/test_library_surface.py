"""The library has one surface: every public definition is used by the program or is the paper's.

A public top-level function or class of ``spectral_cone`` must be referred to
somewhere in the package besides its own definition (a re-export in
``__init__`` does not count), be an entry point the benchmark tracer wraps,
be used by the acceptance tests, or be one of the paper's constructions
listed in ``PAPER_API`` and documented in README.  Anything else is API that
only its own tests call.
"""

import ast
import pathlib

import spectral_cone

PACKAGE = pathlib.Path(spectral_cone.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

# the paper's constructions that no command calls; README's "Library API" says what each backs
PAPER_API = (
    "FiniteActionSet",
    "TangentActionSet",
    "regret_action",
    "divergence_from_action_set",
    "negentropy_generator",
    "squared_norm_generator",
    "divergence_from_generator",
    "is_test",
    "smallest_face",
    "mutually_singular",
    "jordan_product",
)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _used_names(tree: ast.Module, modules=None) -> set:
    """Bare names, names imported from a module, and attributes of the given module aliases (any if None)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if modules is None or node.value.id in modules:
                used.add(node.attr)
    return used


def _module_aliases(tree: ast.Module) -> set:
    """Local names bound to sibling modules by ``from . import x [as y]``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}


def _traced_names() -> set:
    """First component of every attribute path in perfbench/tracer.py's TRACED."""
    tree = _parse(ROOT / "perfbench" / "tracer.py")
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    return {path.split(".")[0] for _, _, path in ast.literal_eval(value)}


def _public_definitions() -> dict:
    """module.name -> name of every public top-level function and class of the package."""
    return {f"{path.stem}.{node.name}": node.name
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _src_references() -> set:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = _parse(path)
            used |= _used_names(tree, _module_aliases(tree))
    return used


def test_every_public_definition_has_a_caller_or_is_the_papers():
    kept = (_src_references() | _traced_names() | _used_names(_parse(ROOT / "tests" / "test_acceptance.py"))
            | set(PAPER_API))
    orphans = sorted(qualified for qualified, name in _public_definitions().items() if name not in kept)
    assert orphans == []


def test_paper_api_is_defined_and_documented():
    defined = set(_public_definitions().values())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in PAPER_API if name not in defined] == []
    assert [name for name in PAPER_API if f"`{name}`" not in readme] == []
