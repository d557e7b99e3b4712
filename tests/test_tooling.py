"""The benchmark in perfbench/ patches spinlab functions by name; a rename
in src/ would otherwise break it without any test failing here.  The
library's own safety checks must survive ``python -O``."""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_breakup_command_reaches_the_traced_breakup_layers(tmp_path,
                                                           monkeypatch):
    """The benchmark's per-layer breakup spans wrap these module attributes;
    a call that bypasses them would leave the spans reading 0."""
    from spinlab import breakup, catalog, cli
    from spinlab import lattice as lm
    from helpers import ordered_config

    system = tmp_path / "af3.json"
    system.write_text(catalog.build("af_potts", q=3).to_json())
    lat = lm.make_box((12, 12))
    f = ordered_config(lat)
    f[lat.index[(6, 6)]] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"values": {
        ",".join(map(str, c)): str(f[v] + 1)
        for v, c in enumerate(lat.coords)}}))
    calls = {}
    for name in ("construct_breakup", "verify_breakup", "compute_regions"):
        def counting(*args, _fn=getattr(breakup, name), _name=name,
                     **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(breakup, name, counting)
    assert cli.main(["breakup", "--system", str(system),
                     "--lattice", "box:12x12+halo", "--config", str(config),
                     "--pattern", "A=1;B=2,3", "--seen-from", "6,6",
                     "--out", str(tmp_path / "out.json")]) == 0
    assert calls == {"construct_breakup": 1, "verify_breakup": 1,
                     "compute_regions": 1}


def test_no_assert_statements_in_the_library():
    """``python -O`` strips assert statements, so a check in src/ must be
    an explicit raise."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "spinlab").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def test_no_unused_imports_in_the_library():
    """Every name a library module imports is read somewhere in it."""
    found = []
    for path in sorted((ROOT / "src" / "spinlab").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in read]
    assert not found


def test_only_the_envelope_writes_payloads():
    """Every subcommand that reads a --system gets its meta and its output
    from cli._command; only cmd_catalog, which reads none, calls _meta and
    _emit itself."""
    tree = ast.parse((ROOT / "src" / "spinlab" / "cli.py").read_text())
    callers = {fn.name for fn in tree.body
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) in ("_meta", "_emit")}
    assert callers == {"_command", "cmd_catalog"}
