"""The benchmark in perfbench/ patches spinlab functions by name; a rename
in src/ would otherwise break it without any test failing here."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_every_traced_name_is_a_spinlab_callable():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{name}" for mod, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"spinlab.{mod}"), name, None))]
    assert not missing
