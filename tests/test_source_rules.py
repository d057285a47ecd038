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


def test_denominators_are_cleared_in_one_place():
    # `exactmath.cleared` is the one lcm-of-denominators; a copy elsewhere
    # drifts from it (an int fast path, list versus tuple, int(c * d))
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "exactmath.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "cleared":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lcm"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "math"
                and any(
                    isinstance(n, ast.Attribute) and n.attr == "denominator"
                    for arg in node.args for n in ast.walk(arg)
                )
                and id(node) not in allowed
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_tangent_pass_runs_in_one_place():
    # T(x, x, -) is the one full pass that cube, nu and the tangent walk at a
    # point all read; outside `nsring` it is made by building an
    # `nsring.Point`, so a second pass at the same point shows up here
    found = []
    for path in SOURCES:
        if path.name == "nsring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_square", "_nu")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cubic_is_expanded_in_one_place():
    # `cubicfactor.factor_cubic` decides irreducibility on the intersection
    # table and expands the cubic only when a candidate factor survives; a
    # caller that expands first pays O(entries) on every irreducible input
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cubicfactor.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "expand_cubic"
    ]
    assert found == []


def test_certify_calls_no_private_form_method():
    # the pipeline reads the trilinear form through its public methods and
    # `nsring.Point`, never through integer passes such as `_scaled`; only
    # its own steps (`self._...`) are private calls
    path = Path(nullcone.__file__).parent / "certify.py"
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr.startswith("_")
        and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self")
    ]
    assert found == []


def test_certify_walks_no_tangent_directions():
    # `cubicchase._tangent_residuals` is the one loop over tangent directions
    # and their residuals; certify reads it and imports no lattice
    # enumerator and no `_residual` of its own
    banned = {
        "iter_kernel_primitives", "iter_primitive_vectors", "iter_integer_vectors", "_residual",
    }
    tree = ast.parse((Path(nullcone.__file__).parent / "certify.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a for a in node.names if a.name.split(".")[-1] in banned]
            found += [f"certify.py:{a.lineno}" for a in names]
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(f"certify.py:{node.lineno}")
    assert found == []


def _calls(node, names: set[str]) -> list[int]:
    """Line numbers of the calls under node to a function or method in names."""
    return [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) in names
    ]


def test_null_point_questions_read_a_point():
    # cube, nu, T(p, p, -) and singularity at a null point are all read from
    # its `nsring.Point`; a `square_class` or `numerical_dimension` call in the
    # chase or the pipeline is a second pass at a point that already has one.
    # `replay_check` stays independent of the prover and may call them
    names = {"square_class", "numerical_dimension"}
    root = Path(nullcone.__file__).parent
    chase_tree = ast.parse((root / "cubicchase.py").read_text(encoding="utf-8"))
    certify_tree = ast.parse((root / "certify.py").read_text(encoding="utf-8"))
    pipeline = next(
        n for n in certify_tree.body if isinstance(n, ast.ClassDef) and n.name == "_Pipeline"
    )
    found = [f"cubicchase.py:{n}" for n in _calls(chase_tree, names)]
    found += [f"certify.py:{n}" for n in _calls(pipeline, names)]
    assert found == []


def test_cubicchase_checks_a_null_point_in_one_place():
    # `_on_cubic` is the one on-cubic check: every function that takes a
    # point from outside calls it instead of raising its own copy
    tree = ast.parse((Path(nullcone.__file__).parent / "cubicchase.py").read_text(encoding="utf-8"))
    owners = {
        id(n): fn.name
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
    }
    found = [
        owners.get(id(n))
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and "is not on the cubic" in n.value
    ]
    assert found == ["_on_cubic"]


def test_secant_formula_runs_in_one_place():
    # `quadpoints._residual` is the one secant routine: sample_points and
    # second_intersection both call it, so neither carries its own copy
    tree = ast.parse((Path(nullcone.__file__).parent / "quadpoints.py").read_text(encoding="utf-8"))
    callers = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("sample_points", "second_intersection"):
            callers[node.name] = any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_residual"
                for n in ast.walk(node)
            )
    assert callers == {"sample_points": True, "second_intersection": True}


def _names_private_type(annotation) -> bool:
    """Whether an annotation names a `_`-prefixed type, also inside a
    string annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                if _names_private_type(ast.parse(node.value, mode="eval")):
                    return True
            except SyntaxError:
                pass
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
        if name.startswith("_") and not name.startswith("__"):
            return True
    return False


def test_public_signatures_name_no_private_type():
    # a caller of a public function cannot build or name a private type, so
    # a private type in a public signature is a hand-off between internals
    # that has leaked into the API; public methods of public classes count
    def public(name):
        return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and public(cls.name):
                functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn in functions:
            if not public(fn.name):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in params if a is not None and a.annotation is not None]
            if fn.returns is not None:
                annotations.append(fn.returns)
            if any(map(_names_private_type, annotations)):
                found.append(f"{path.name}:{fn.lineno}")
    assert found == []
