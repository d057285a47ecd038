"""Source-level rules that equality tests cannot enforce."""

import ast
from pathlib import Path

import nullcone

SOURCES = sorted(Path(nullcone.__file__).parent.glob("*.py"))


def test_no_true_division_in_library():
    # on two ints `/` gives a float, which compares equal to the exact answer
    # (0.5 == Fraction(1, 2)) and so slips past every value test; exact
    # quotients are written Fraction(a, b) and integer ones a // b
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
