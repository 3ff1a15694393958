"""Every function in the package is reached from the package itself, unless
it is a named oracle of a claim of the paper that only the tests call; and
the tests' own oracles take no function from the package."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncdirac"
ORACLE = Path(__file__).resolve().parent / "oracle.py"

#: functions that only tests call, each the oracle of a paper claim
ORACLES = {
    "hermitian_defect": "certifies that H(t) and the invariant I(t) are Hermitian",
    "theta_phase": "the closed-form coordinate part of the solution's accumulated phase",
    "lr_phase": "the Lewis-Riesenfeld phase alpha(t) = theta - integral of E dt",
    "assemble_solution": "the paper's spinor solution psi(x, y, t) from the closed forms",
    "trial_residual": "i hbar d(psi)/dt - H psi of that solution, the defect of the trial spinor",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound_names(target):
    """The names an assignment target binds: a Name, or the Names of a tuple."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def _definitions(tree):
    """(name, class or None, first line, last line) of each module-level
    function, each non-dunder method of a module-level class and each name a
    module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(f.name):
                    yield f.name, node.name, f.lineno, f.end_lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in _bound_names(t) if not _dunder(n)):
                yield name, None, node.lineno, node.end_lineno


def unreferenced() -> dict[str, str]:
    """Qualified name -> module of every definition that nothing in the package
    reads outside the definition itself. A module-level name is read by a
    loaded Name or Attribute, a method only by a loaded Attribute. A Name
    bound by ``from ... import f as g`` refers to f."""
    definitions, names, attributes = [], {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path.name, *d) for d in _definitions(tree)]
        aliases = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = aliases.get(node.id, node.id)
                names.setdefault(name, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.setdefault(node.attr, []).append((path.name, node.lineno))
    dead = {}
    for module, name, owner, first, last in definitions:
        refs = attributes.get(name, []) + ([] if owner else names.get(name, []))
        if all(m == module and first <= line <= last for m, line in refs):
            dead[f"{owner}.{name}" if owner else name] = module
    return dead


def test_every_function_is_reached_from_the_package():
    dead = {name: module for name, module in unreferenced().items() if name not in ORACLES}
    assert not dead, f"reached from no code in src/ (delete, or name as a paper-claim oracle): {dead}"


def test_every_named_oracle_is_still_unreached():
    # an oracle that gains a caller in src/ is reached code, and leaves ORACLES
    reached = set(ORACLES) - set(unreferenced())
    assert not reached, f"named as oracles but reached from src/: {sorted(reached)}"


def test_every_named_oracle_exists():
    defined = {
        d[0] for path in SRC.glob("*.py") for d in _definitions(ast.parse(path.read_text()))
    }
    assert set(ORACLES) <= defined


def test_test_oracles_import_no_function_from_the_package():
    # an oracle that shares a formula with the package would check it against itself
    shared = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncdirac"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if callable(value) and not isinstance(value, type):
                    shared.append(f"{node.module}.{alias.name}")
    assert not shared, f"tests/oracle.py imports package functions: {shared}"
