"""The benchmark in perfbench/ patches spinlab functions by name; a rename
in src/ would otherwise break it without any test failing here.  The
library's own safety checks must survive ``python -O``, and the library
holds only what a subcommand (or the benchmark) runs.  A system's one memo
is keyed by the spinlab functions that build its entries, so two modules'
keys cannot collide."""

import ast
import importlib
import inspect
import json
from pathlib import Path

from spinlab import catalog, gibbs, kbipartite, parameters, patterns
from spinlab.lattice import make_lattice

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinlab"
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


def test_work_counters_read_arguments_the_traced_functions_take():
    """perfbench/spans.py's WORK functions read a traced call's arguments
    by name (args["lat"], ...); each name must stay a parameter of the
    function it counts."""
    tree = ast.parse(SPANS.read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    work = next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WORK"
                        for t in node.targets))
    checked, missing = 0, []
    for key, fn in zip(work.keys, work.values):
        mod, name = ast.literal_eval(key).split(".")
        params = inspect.signature(getattr(importlib.import_module(
            f"spinlab.{mod}"), name)).parameters
        for node in ast.walk(defs[fn.id]):
            if isinstance(node, ast.Subscript) \
                    and getattr(node.value, "id", None) == "args":
                arg = ast.literal_eval(node.slice)
                checked += 1
                if arg not in params:
                    missing.append(f"{mod}.{name}({arg})")
    assert checked and not missing


def test_breakup_command_reaches_the_traced_breakup_layers(tmp_path,
                                                           monkeypatch):
    """The benchmark's per-layer breakup spans wrap these module attributes;
    a call that bypasses them would leave the spans reading 0."""
    from spinlab import breakup, catalog, cli
    from helpers import make_box, ordered_config

    system = tmp_path / "af3.json"
    system.write_text(catalog.build("af_potts", q=3).to_json())
    lat = make_box((12, 12))
    f = ordered_config(lat)
    f[lat.site((6, 6))] = 1
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


def test_the_mask_layer_gathers_through_the_adjacency_table_by_take():
    """``m[..., lat.adj]`` goes through numpy's general fancy indexing;
    ``m.take(lat.adj, axis=-1)`` gives the same array about 2.5 times
    faster on a breakup's stack of pattern masks.  No subscript in the
    mask layer indexes by an expression that reads an ``adj`` table."""
    found = [f"{name}:{node.lineno}"
             for name in ("lattice.py", "breakup.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.Subscript)
             and any(isinstance(sub, ast.Attribute) and sub.attr == "adj"
                     for sub in ast.walk(node.slice))]
    assert not found


def test_no_unused_imports_in_the_library():
    """Every name a library or test module imports is read somewhere in
    it."""
    found = []
    for path in sorted(SRC.rglob("*.py")) \
            + sorted((ROOT / "tests").glob("*.py")):
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


def _perfbench_names():
    """(module, name) pairs the benchmark reaches: the TRACED functions,
    and every spinlab.<module>.<name> chain in perfbench/*.py."""
    names = {(mod, name) for mod, names in _traced().items()
             for name in names}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Attribute) \
                    and getattr(node.value.value, "id", None) == "spinlab":
                names.add((node.value.attr, node.attr))
    return names


def _imports(tree, modules):
    """What a module's names stand for: local name -> (module, None) for a
    module it imports with ``from . import``, and -> (module, name) for a
    name it takes from another module, at any level of the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    target = alias.name, None
                else:
                    target = node.module or "__init__", alias.name
                out[alias.asname or alias.name] = target
    return out


def _reads(node, module, imports):
    """The (module, name) definitions a node reads: each name it loads, as
    its own module's or as an import, and each attribute it loads on a
    module."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield imports.get(n.id, (module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) \
                and isinstance(n.value, ast.Name):
            target = imports.get(n.value.id)
            if target and target[1] is None:
                yield target[0], n.attr


def test_every_library_definition_is_reachable():
    """Every top-level def, class and assignment in src/spinlab is reached
    from a click subcommand, cli.main, a module-level statement or a name
    the benchmark reaches.  A definition is reached when a reached
    definition loads its name (in its own module, or where imported) or
    loads it as an attribute of its module; a stored name, a dataclass
    field or an attribute of any other object does not count.  Test
    oracles, checks of the paper's lemmas and wrappers that only tests call
    belong in tests/helpers.py.

    The benchmark's names are roots because perfbench/ patches and calls
    them, and a change that edits src/ cannot also edit the benchmark.  No
    subcommand runs these, which only the benchmark keeps: the TRACED
    gibbs.exact_measure, prob_not_in_pattern and z_pattern_box,
    parameters.compute_parameters with its ParameterReport, and
    lattice.plus_r, components, separating_components and
    connected_to_infinity; gibbs.z_torus with its layer transfer, which
    perfbench calls directly; and kbipartite.PsiSpec.kind, a member
    perfbench/spans.py reads.  ROADMAP item 3 removes them together with
    TRACED."""
    paths = sorted(SRC.glob("*.py"))
    modules = {path.stem for path in paths}
    defs, roots, imports = {}, [], {}
    for path in paths:
        mod = path.stem
        tree = ast.parse(path.read_text())
        imports[mod] = _imports(tree, modules)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                if mod == "cli" and node.decorator_list:
                    roots.append((mod, node))  # the click group, subcommands
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs[mod, n.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and not (isinstance(node, ast.Expr)
                             and isinstance(node.value, ast.Constant)):
                roots.append((mod, node))
    roots += [(key[0], defs[key])
              for key in _perfbench_names() | {("cli", "main")}
              if key in defs]
    reached = set()
    while roots:
        mod, node = roots.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        roots += [(key[0], defs[key])
                  for key in _reads(node, mod, imports[mod]) if key in defs]
    unreached = sorted(f"{mod}.{name}" for (mod, name), node in defs.items()
                       if id(node) not in reached)
    assert not unreached, "unreached:\n" + "\n".join(unreached)


def test_every_memo_key_is_led_by_a_spinlab_function():
    """analyze, check, zfun, verify-cond, exact and mcmc on one system leave
    only keys that are a spinlab function or a tuple led by one."""
    system = catalog.build("af_potts", q=3, beta=1)
    pat = patterns.analyze(system).dominant[0]
    for which in ("simple", "alt1", "alt2"):
        parameters.check_condition(system, 50, which)
    kbipartite.z_compositions(system, 2, kbipartite.PsiSpec(
        coords=[0b111, 0b011, 0b011, 0b110]), system.full_mask())
    kbipartite.verify_main_condition(system, 2, 0.2, 0.0, 0.125, 0.125)
    lat = make_lattice((4, 4), (False, False))
    site = min(lat.interior)
    gibbs.site_law(system, lat, pat, site)
    gibbs.run_mcmc(system, lat, pat, site, n_sweeps=20)

    def spinlab_function(key):
        return inspect.isfunction(key) \
            and key.__module__.startswith("spinlab.")

    assert system._memo
    strays = [key for key in system._memo
              if not spinlab_function(key[0] if isinstance(key, tuple)
                                      else key)]
    assert not strays, strays
