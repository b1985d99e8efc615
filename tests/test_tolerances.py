"""The tolerance table is the only place a tolerance is written."""

import ast
import pathlib

import spectral_cone

PACKAGE = pathlib.Path(spectral_cone.__file__).parent


def test_no_tolerance_literal_outside_the_table():
    # every float literal below 1e-3 is a tolerance, a step or a floor: it belongs in tolerances.py
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-3
    ]
    assert found == []
