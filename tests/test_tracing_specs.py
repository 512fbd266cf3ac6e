"""The benchmark tracer's wrap list names attributes that exist.

``perfbench/tracing.py`` wraps library functions by (module, attribute)
name; a rename in ``src/`` would otherwise only break ``--trace 1`` runs.
The list is read from the source text, so the harness is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrap_specs():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAP_SPECS"]):
            return [tuple(ast.literal_eval(e) for e in spec.elts[:2])
                    for spec in node.value.elts]
    raise AssertionError("WRAP_SPECS not found")


def test_every_traced_attribute_resolves():
    specs = wrap_specs()
    assert len(specs) > 40
    missing = []
    for module, attr in specs:
        owner = importlib.import_module(f"fracdelay.{module}")
        *cls, name = attr.split(".")
        if cls:
            # a method is wrapped where its class defines it
            owner = vars(owner).get(cls[0])
            found = owner is not None and name in vars(owner)
        else:
            found = hasattr(owner, name)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
