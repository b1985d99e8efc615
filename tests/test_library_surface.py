"""The library has one surface: every public definition is used by the program or is the paper's.

A public top-level function or class of ``spectral_cone`` must be referred to
somewhere in the package besides its own definition (a re-export in
``__init__`` does not count), be an entry point the benchmark tracer wraps,
be used by the acceptance tests, or be one of the paper's constructions
listed in ``PAPER_API`` and documented in README.  Anything else is API that
only its own tests call.  Likewise every defaulted parameter of a public
top-level function must be passed at some call site in the package or the
acceptance tests, or be listed in ``TEST_ONLY_KNOBS`` with its reason.
"""

import ast
import math
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

# defaulted parameters that only tests set, and why each stays
TEST_ONLY_KNOBS = {
    "cli.main(argv)": "the console script runs main() on sys.argv; the CLI tests pass their argument lists",
    "divergence.check_sufficiency(channel_suite)": "the only way tests reach channel pairs that break the "
                                                   "reversibility precondition or leave the state space",
    "jordan.check_concavity(fd_step)": "the only way tests reach a failing finite-difference witness",
    "jordan.check_concavity(strictness)": "the only way tests reach a failing second-derivative witness",
    "jordan.random_density_matrix(floor)": "tests draw full-rank density matrices, away from the boundary",
}


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


def _defaulted_parameters() -> dict:
    """Every defaulted parameter of a public top-level function of the package, keyed
    "module.function(parameter)", as (function, parameter, position or None if keyword-only)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                knobs = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
                knobs += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                out.update({f"{path.stem}.{node.name}({name})": (node.name, name, i) for name, i in knobs})
    return out


def _call_sites() -> list:
    """(called name, positional argument count, keyword names) of every call in the package and the
    acceptance tests; a starred argument may fill every positional parameter from its place on."""
    sites = []
    for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                count = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                sites.append((name, count, {k.arg for k in node.keywords}))
    return sites


def test_every_defaulted_parameter_is_passed_or_only_tests_set_it():
    sites = _call_sites()
    unpassed = {knob for knob, (function, param, position) in _defaulted_parameters().items()
                if not any(name == function and (param in keywords or position is not None and position < count)
                           for name, count, keywords in sites)}
    assert sorted(unpassed - TEST_ONLY_KNOBS.keys()) == []  # a knob nothing sets: delete it or list it
    assert sorted(TEST_ONLY_KNOBS.keys() - unpassed) == []  # a listed knob that is now passed, or gone
