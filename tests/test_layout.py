"""Every top-level function of the package has a caller outside the tests.

A function is used when its name appears outside its own ``def`` in the
package, in ``scripts/`` or in ``perfbench/`` (as a name, an attribute,
an import, or a string such as a probe target or an ``__all__`` entry).
Test-only helpers belong in ``tests/``; independent checks that only the
tests call are listed in ORACLES with the reason they stay.
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


def test_every_top_level_function_has_a_caller_outside_the_tests():
    everywhere = Counter()
    defined = []   # (module, name, names inside its own def)
    for path in sorted(p for place in PLACES for p in place.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere.update(_names(tree))
        if path.parent == PACKAGE:
            defined.extend((path.stem, stmt.name, _names(stmt))
                           for stmt in tree.body
                           if isinstance(stmt, ast.FunctionDef))
    unused = sorted(f"{module}.{name}" for module, name, own in defined
                    if everywhere[name] == own[name] and name not in ORACLES)
    assert not unused, ("functions named nowhere outside their own def; "
                        f"move them into tests/ or delete them: {unused}")
    assert set(ORACLES) <= {name for _, name, _ in defined}
