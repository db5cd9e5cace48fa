"""Every top-level function, module-level name and class member of the
package has a reader outside the tests.

A function, or a name a module binds by assignment (dunders excepted), is
used when its name appears outside its own definition in the package, in
``scripts/`` or in ``perfbench/`` (as a name, an attribute, an import, or
a string such as a probe target).  The package's ``__init__.py`` does not
count: its imports and ``__all__`` name everything it re-exports.  A
method, property or dataclass field is used when it is read as an
attribute, or named in a dotted string such as ``"Class.method"``,
outside its own definition in those places.  Test-only helpers and data
belong in ``tests/``; independent checks that only the tests call are
listed in ORACLES and MEMBER_ORACLES with the reason they stay.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwave"
PLACES = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ORACLES = {
    "flow_order_mismatch": "re-measures the swap-order defect of a built "
                           "hodograph surface, independently of the build",
    "surface_tangency_residual": "samples a surface's defining property, "
                                 "df/dtau in the mu-weighted gamma frame",
    "double_wave_fixture": "the explicit two-wave field that the verify "
                           "tests check against",
}

MEMBER_ORACLES = {
    "QuasilinearSystem.residual_at": "the residual at one point from a "
                                     "supplied jet, which checks exact "
                                     "solutions against a system",
    "HomogenizationResult.transport_jet": "carries a solution's jet over to "
                                          "the homogenized system, which "
                                          "checks homogenize against the "
                                          "original system's solutions",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node):
    """Counter of the identifiers a syntax tree refers to."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def _attribute_reads(node):
    """Counter of the attribute names a syntax tree reads, directly or as a
    part of a dotted string."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and "." in sub.value and _DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def _trees():
    for path in sorted(p for place in PLACES for p in place.rglob("*.py")):
        if path != PACKAGE / "__init__.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


def _top_level(tree):
    """(name, definition) of each function a module defines and each name
    it binds by assignment, dunders excepted."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
            continue
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) \
                        and not (sub.id.startswith("__")
                                 and sub.id.endswith("__")):
                    yield sub.id, stmt


def test_every_top_level_function_has_a_caller_outside_the_tests():
    everywhere = Counter()
    defined = []   # (module, name, names inside its own definition)
    for path, tree in _trees():
        everywhere.update(_names(tree))
        if path.parent == PACKAGE:
            defined.extend((path.stem, name, _names(stmt))
                           for name, stmt in _top_level(tree))
    unused = sorted(f"{module}.{name}" for module, name, own in defined
                    if everywhere[name] == own[name] and name not in ORACLES)
    assert not unused, ("functions and module-level names named nowhere "
                        "outside their own definition; move them into "
                        f"tests/ or delete them: {unused}")
    assert set(ORACLES) <= {name for _, name, _ in defined}


def test_every_class_member_is_read_outside_the_tests():
    # methods and properties (dunders are called by Python itself) and
    # annotated class attributes, which are the dataclass fields
    everywhere = Counter()
    defined = []   # (module, class, member, reads inside its own definition)
    for path, tree in _trees():
        everywhere.update(_attribute_reads(tree))
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                elif isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                defined.append((path.stem, cls.name, name,
                                _attribute_reads(stmt)))
    unused = sorted(f"{module}.{cls}.{name}"
                    for module, cls, name, own in defined
                    if everywhere[name] == own[name]
                    and f"{cls}.{name}" not in MEMBER_ORACLES)
    assert not unused, ("members read nowhere outside their own definition; "
                        f"move them into tests/ or delete them: {unused}")
    assert set(MEMBER_ORACLES) <= {f"{cls}.{name}"
                                   for _, cls, name, _ in defined}
