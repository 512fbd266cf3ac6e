"""The benchmark tracer's wrap list names attributes that exist.

``perfbench/tracing.py`` wraps library functions by (module, attribute)
name; a rename in ``src/`` would otherwise only break ``--trace 1`` runs.
``perfbench/test_harness.py`` also reads some module attributes directly.
Both are read from the source text, so the harness is not imported.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
HARNESS_TESTS = PERFBENCH / "test_harness.py"


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


def harness_chains():
    """Every dotted ``fracdelay.<module>.<name>...`` chain in the harness
    tests' source, as a tuple of names."""
    chains = set()
    for node in ast.walk(ast.parse(HARNESS_TESTS.read_text(encoding="utf-8"))):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if (isinstance(node, ast.Name) and node.id == "fracdelay"
                and len(names) >= 2):
            chains.add(("fracdelay", *reversed(names)))
    return chains


def test_every_attribute_the_harness_reads_resolves():
    chains = harness_chains()
    assert ("fracdelay", "certificates", "phi_alpha_l1") in chains
    missing = []
    for root, module, *attrs in sorted(chains):
        owner = importlib.import_module(f"{root}.{module}")
        for name in attrs:
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(".".join((root, module, *attrs)))
    assert missing == []
