"""The benchmark under bench/ imports the program by name: every
hartree_lab name its scripts import, and every attribute they read off an
imported hartree_lab module, must still exist, every keyword they pass
to a hartree_lab callable must be one it takes, and each call's count of
positional arguments and its keywords must bind to the callable's
signature.  Names the bench looks up by string through its tracer, the
``boundaries`` entries of its workloads and its probe's ``call``s, are
checked apart: the bench tolerates their absence, so a name that stops
resolving would only shrink the traced coverage, not fail a run."""

import ast
import importlib
import inspect
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _is_ours(module: str) -> bool:
    return module == "hartree_lab" or module.startswith("hartree_lab.")


def _lookup(module: str, name: str):
    """Attribute or submodule ``name`` of ``module``, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def _accepts(obj, keyword: str) -> bool:
    """Whether the callable obj takes keyword by name."""
    return any(
        p.kind is p.VAR_KEYWORD
        or (p.name == keyword and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        for p in inspect.signature(obj).parameters.values()
    )


def _binds(obj, positional: int, keywords) -> bool:
    """Whether a call with this many positional arguments and these
    keywords binds to the signature of the callable obj."""
    try:
        inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError:
        return False
    return True


def hartree_lab_references(source: str):
    """(dotted name, resolves) for each hartree_lab name the source imports,
    each attribute it reads off an imported hartree_lab module, as
    "name(keyword=)" each keyword it passes to a hartree_lab callable, and,
    as "name(<m> positional, keyword=, ...)", whether each call binds to
    the callable's signature.  A call that unpacks *args or **kwargs has
    no count to bind and is left out of the last."""
    tree = ast.parse(source)
    modules = {}  # local name -> the hartree_lab module bound to it
    names = {}  # local name -> (dotted name, object) of an imported hartree_lab name
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_ours(node.module or ""):
            for alias in node.names:
                obj = _lookup(node.module, alias.name)
                refs.append((f"{node.module}.{alias.name}", obj is not None))
                names[alias.asname or alias.name] = (f"{node.module}.{alias.name}", obj)
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_ours(alias.name) and (alias.asname or alias.name == "hartree_lab"):
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            refs.append((f"{module}.{node.attr}", _lookup(module, node.attr) is not None))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            name, obj = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            name = f"{modules[func.value.id]}.{func.attr}"
            obj = _lookup(modules[func.value.id], func.attr)
        else:
            continue
        if obj is None:  # reported above as a name that does not resolve
            continue
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        for kw in keywords:  # a **mapping names no keyword in the source
            refs.append((f"{name}({kw}=)", _accepts(obj, kw)))
        if len(keywords) < len(node.keywords) or any(
                isinstance(arg, ast.Starred) for arg in node.args):
            continue
        call = ", ".join([f"{len(node.args)} positional"] + [f"{kw}=" for kw in keywords])
        refs.append((f"{name}({call})", _binds(obj, len(node.args), keywords)))
    return refs


def test_bench_references_resolve():
    missing, count = [], 0
    for path in sorted(BENCH.glob("*.py")):
        for name, ok in hartree_lab_references(path.read_text()):
            count += 1
            if not ok:
                missing.append(f"bench/{path.name}: {name}")
    assert count > 0
    assert not missing, "\n".join(missing)


def test_missing_reference_is_reported():
    source = (
        "from hartree_lab.semiclassical import soliton_energy, no_such_function\n"
        "from hartree_lab import semiclassical\n"
        "semiclassical.soliton_row\n"
        "semiclassical.no_such_attribute\n"
        "soliton_energy(gs, V, eps=0.1, xi=xi)\n"
        "semiclassical.soliton_row(gs, V, 0.1, xi, workers=2)\n"
        "semiclassical.soliton_row(gs, V, 0.1, xi, 2)\n"
        "semiclassical.soliton_row(*args, eps=0.1)\n"
        "semiclassical.no_such_attribute(seed=1)\n"
    )
    refs = dict(hartree_lab_references(source))
    assert refs == {
        "hartree_lab.semiclassical.soliton_energy": True,
        "hartree_lab.semiclassical.no_such_function": False,
        "hartree_lab.semiclassical": True,
        "hartree_lab.semiclassical.soliton_row": True,
        "hartree_lab.semiclassical.no_such_attribute": False,
        "hartree_lab.semiclassical.soliton_energy(eps=)": True,
        "hartree_lab.semiclassical.soliton_energy(xi=)": True,
        "hartree_lab.semiclassical.soliton_row(workers=)": False,
        "hartree_lab.semiclassical.soliton_energy(2 positional, eps=, xi=)": True,
        "hartree_lab.semiclassical.soliton_row(4 positional, workers=)": False,
        "hartree_lab.semiclassical.soliton_row(5 positional)": False,
        "hartree_lab.semiclassical.soliton_row(eps=)": True,
    }


# string lookups that no longer resolve in the program as it is: the bench
# still names them, and its tracer records each as an absent span
KNOWN_ABSENT = {
    "hartree_lab.ground_state.radial_newton_potential",
    "hartree_lab.newton_potential.prefetch_kernel_matrices",
}


def _owner(node, bound):
    """(dotted name, object) of a Name or attribute chain rooted at a bound
    hartree_lab name, or None for anything else."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _owner(node.value, bound)
        if base is not None and hasattr(base[1], node.attr):
            return f"{base[0]}.{node.attr}", getattr(base[1], node.attr)
    return None


def string_lookups(source: str):
    """(dotted name, resolves) for each hartree_lab attribute the source
    looks up by string: the (owner, "name", layer) entries of every
    ``boundaries`` assignment and every ``<x>.call(owner, "name", ...)``,
    with the owner a hartree_lab module, or an attribute of one, that the
    source imports."""
    tree = ast.parse(source)
    bound = {}  # local name -> (dotted name, object)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_ours(node.module or ""):
            for alias in node.names:
                obj = _lookup(node.module, alias.name)
                if obj is not None:
                    bound[alias.asname or alias.name] = (f"{node.module}.{alias.name}", obj)
    pairs = []  # (owner node, name node)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and any(isinstance(t, ast.Name) and t.id == "boundaries"
                        for t in node.targets)):
            pairs += [tuple(entry.elts[:2]) for entry in node.value.elts]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call" and len(node.args) >= 2):
            pairs.append(tuple(node.args[:2]))
    refs = []
    for owner_node, name in pairs:
        owner = _owner(owner_node, bound)
        if owner is None or not (isinstance(name, ast.Constant)
                                 and isinstance(name.value, str)):
            continue
        dotted, obj = owner
        refs.append((f"{dotted}.{name.value}", hasattr(obj, name.value)))
    return refs


def test_bench_string_lookups_resolve():
    found = [ref for path in sorted(BENCH.glob("*.py"))
             for ref in string_lookups(path.read_text())]
    assert len(found) >= 7
    absent = {name for name, ok in found if not ok}
    assert absent <= KNOWN_ABSENT, "\n".join(sorted(absent - KNOWN_ABSENT))


def test_string_lookup_scan():
    source = (
        "from hartree_lab import ground_state, radial_core\n"
        "from other import thing\n"
        "class W:\n"
        "    boundaries = (\n"
        "        (ground_state, 'kernel_matrix', 'newton_potential'),\n"
        "        (ground_state, 'no_such_function', 'newton_potential'),\n"
        "        (radial_core.RadialFunction, 'evaluate', 'radial_core'),\n"
        "        (thing, 'anything', 'other'),\n"
        "    )\n"
        "probe.call(radial_core, 'no_such_entry', grid)\n"
        "probe.call(radial_core, name, grid)\n"
    )
    assert string_lookups(source) == [
        ("hartree_lab.ground_state.kernel_matrix", True),
        ("hartree_lab.ground_state.no_such_function", False),
        ("hartree_lab.radial_core.RadialFunction.evaluate", True),
        ("hartree_lab.radial_core.no_such_entry", False),
    ]
