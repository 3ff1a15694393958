"""Every function in the package is reached from the package itself, unless
it is a named oracle of a claim of the paper that only the tests call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncdirac"

#: functions that only tests call, each the oracle of a paper claim
ORACLES = {
    "build_h_commutative": "the commutative Hamiltonian the deformed one reduces to at theta = eta = 0",
    "hermitian_defect": "certifies that H(t) and the invariant I(t) are Hermitian",
    "theta_phase": "the closed-form coordinate part of the solution's accumulated phase",
    "lr_phase": "the Lewis-Riesenfeld phase alpha(t) = theta - integral of E dt",
    "assemble_solution": "the paper's spinor solution psi(x, y, t) from the closed forms",
    "trial_residual": "i d(psi)/dt - H psi of that solution, the defect of the trial spinor",
}


def _functions(tree):
    """(name, first line, last line) of each module-level function and each
    non-dunder method of a module-level class."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                f.name.startswith("__") and f.name.endswith("__")
            ):
                yield f.name, f.lineno, f.end_lineno


def unreferenced() -> dict[str, str]:
    """Name -> module of every function that no Name or Attribute anywhere in
    the package refers to, outside the function's own body. A Name bound by
    ``from ... import f as g`` refers to f."""
    functions, refs = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions += [(path.name, *f) for f in _functions(tree)]
        aliases = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = aliases.get(node.id, node.id)
                refs.setdefault(name, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path.name, node.lineno))
    return {
        name: module
        for module, name, first, last in functions
        if all(m == module and first <= line <= last for m, line in refs.get(name, ()))
    }


def test_every_function_is_reached_from_the_package():
    dead = {name: module for name, module in unreferenced().items() if name not in ORACLES}
    assert not dead, f"reached from no code in src/ (delete, or name as a paper-claim oracle): {dead}"


def test_every_named_oracle_exists():
    defined = {
        f[0] for path in SRC.glob("*.py") for f in _functions(ast.parse(path.read_text()))
    }
    assert set(ORACLES) <= defined
