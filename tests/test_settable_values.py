import ast
from pathlib import Path

import iterlinopt

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iterlinopt"

# The settable values of the package, as the quality aim in ROADMAP.md
# states them. Adding a knob means updating both numbers.
SETTABLE_VALUES = 46


def _is_dataclass(node):
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in names)


def _settable(path):
    """Parameters with a default, dataclass fields with a default and, in
    cli.py, add_argument calls."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         for st in node.body)
        elif (path.name == "cli.py" and isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            count += 1
    return count


def test_settable_value_count():
    """A ratchet on the knobs: a new keyword default, dataclass default or
    command-line flag fails here until SETTABLE_VALUES and the count in
    ROADMAP.md are raised with it, and a deleted one until both are
    lowered."""
    counts = {p.name: _settable(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(counts.values()) == SETTABLE_VALUES, counts


# The tolerances a caller may set, as "function.parameter" or
# "Dataclass.field": every other tolerance is one module constant with one
# decision, listed in the README's Tolerances table.
TOLERANCE_KEYWORDS = {
    "analyze_fixed_point.tol",
    "IterationConfig.tol",
    "OracleConfig.gap_tol",
}


def _is_tolerance(name):
    return name == "tol" or name.endswith("_tol")


def _defaulted(tree):
    """(name, positional parameters, defaulted parameters) per function
    and dataclass of a syntax tree with a default; a dataclass's
    positional parameters are its fields, and a method's leave out self."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [st for st in node.body if isinstance(st, ast.AnnAssign)]
            positional = [st.target.id for st in fields]
            defaulted = [st.target.id for st in fields if st.value is not None]
        else:
            continue
        if defaulted:
            yield node.name, positional, defaulted


def _tolerance_keywords(path):
    """The parameters and dataclass fields with a default that are named
    tol or *_tol."""
    return {f"{name}.{p}" for name, _, defaulted in _defaulted(
        ast.parse(path.read_text())) for p in defaulted if _is_tolerance(p)}


def test_tolerance_keyword_count():
    """A ratchet on the tolerances a caller may set: a decision with a
    second value fails here until it is listed in TOLERANCE_KEYWORDS."""
    found = set().union(*(_tolerance_keywords(p)
                          for p in sorted(PACKAGE.glob("*.py"))))
    assert found == TOLERANCE_KEYWORDS


# Settable values that no production call sets, each with the benchmark
# script that reads it back. ROADMAP item 4 deletes both once the run's
# own telemetry replaces that script's wrappers.
SETTER_ALLOWLIST = {
    "OracleConfig.max_sweeps": "spans.py",  # counts the capped oracle calls
    "elliptope_oracle.warm_start": "spans.py",  # counts the warm starts
}


def _calls(node, inside=()):
    """(callee name, positional argument count, keyword names, enclosing
    definitions) per call under a syntax tree node. Positional arguments
    after a starred one are not counted, since their positions are
    unknown."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside += (node.name,)
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        yield name, positional, {kw.arg for kw in node.keywords}, inside
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, inside)


def test_every_settable_value_has_a_production_setter():
    """Every parameter and dataclass field with a default under the package
    is passed, by keyword or by position, by a call in the package outside
    its own definition or by a call in a benchmark script under perfbench/,
    or is on SETTER_ALLOWLIST and read back by the script it names: a
    default that only the tests change is a knob that does nothing. The
    command-line flags are the CLI's to set. Callees are matched by bare
    name, so each defaulted name must be unique in the package."""
    bench_dir = PACKAGE.parents[1] / "perfbench"
    paths = sorted(PACKAGE.glob("*.py"))
    package = [ast.parse(p.read_text()) for p in paths]
    found = [entry for tree in package for entry in _defaulted(tree)]
    signatures = {name: (positional, defaulted)
                  for name, positional, defaulted in found}
    assert len(signatures) == len(found), sorted(name for name, _, _ in found)
    # a lambda's defaults have no name to set them by: there are none, so
    # that this walk and _settable's count the same values
    assert not [node for tree in package for node in ast.walk(tree)
                if isinstance(node, ast.Lambda) and (node.args.defaults or any(
                    d is not None for d in node.args.kw_defaults))]
    calls = [call for tree in package for call in _calls(tree)] + [
        call for p in sorted(bench_dir.glob("*.py"))
        for call in _calls(ast.parse(p.read_text()))]
    settable = {f"{name}.{p}" for name, (_, defaulted) in signatures.items()
                for p in defaulted}
    flags = sum(isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                for node in ast.walk(package[paths.index(PACKAGE / "cli.py")]))
    assert len(settable) + flags == sum(_settable(p) for p in paths)
    passed = set()
    for name, count, keywords, inside in calls:
        if name in signatures and name not in inside:
            positional, defaulted = signatures[name]
            passed |= {f"{name}.{p}" for p in defaulted
                       if p in keywords or p in positional[:count]}
    assert sorted(settable - passed - set(SETTER_ALLOWLIST)) == []
    # an allowlisted value is still unset, and its reader still reads it
    for value, reader in SETTER_ALLOWLIST.items():
        assert value in settable - passed, value
        tree = ast.parse((bench_dir / reader).read_text())
        assert value.split(".")[1] in _referenced(tree), value


def test_every_dataclass_is_frozen():
    """A result is built once, by its producer: every dataclass of the
    package says frozen=True, so that no caller can assign to its fields
    after the constructor returns."""
    unfrozen = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                frozen = any(isinstance(d, ast.Call) and any(
                    kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True for kw in d.keywords)
                    for d in node.decorator_list)
                if not frozen:
                    unfrozen.append(f"{path.name}:{node.name}")
    assert not unfrozen


# Public definitions, by module-qualified name, that no other definition
# of the package and no benchmark script uses, each with the reason it
# stays.
EXPORT_ALLOWLIST = {}


def _referenced(tree):
    """Names a syntax tree mentions: names, attributes, imported names and
    string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _definitions(path):
    """(qualified name, defined name, owner, referenced names) per
    top-level statement of a module and per method of its classes, whose
    owner is its class's qualified name. A class keeps the references its
    methods leave out; a statement that defines nothing has no names."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            qualified = f"{path.stem}.{node.name}"
            rest = node.bases + node.keywords + node.decorator_list
            for st in node.body:
                if isinstance(st, ast.FunctionDef):
                    yield f"{qualified}.{st.name}", st.name, qualified, _referenced(st)
                else:
                    rest.append(st)
            yield qualified, node.name, None, set().union(*map(_referenced, rest))
        elif isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name, None, _referenced(node)
        else:
            yield None, None, None, _referenced(node)


def test_every_export_has_a_production_caller():
    """Every public function, class, method and property of the package,
    the exported names among them, is used by the package's other
    definitions or by the benchmark scripts under perfbench/, or is on
    EXPORT_ALLOWLIST: a function only the tests call belongs in the tests.
    Methods are matched by bare name, so one call of maximize serves every
    domain's. A definition's use of itself does not count, nor a use inside
    a definition that is itself unused (a result type only its unused
    producer builds) or inside a method of an unused class."""
    init = PACKAGE / "__init__.py"
    definitions = [d for path in sorted(PACKAGE.glob("*.py")) if path != init
                   for d in _definitions(path)]
    # public: no part of the name is private, so a private class's override
    # of a library method, which the library calls, is not checked
    public = {qualified: name for qualified, name, _, _ in definitions
              if qualified and not any(part.startswith("_") for part
                                       in qualified.split(".")[1:])}
    # every exported name is one of the walked definitions
    assert set(iterlinopt.__all__) <= {name for qualified, name in public.items()
                                       if qualified.count(".") == 1}
    bench = set().union(*(_referenced(ast.parse(path.read_text())) for path
                          in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))))
    unused = set()
    while True:
        used = bench.union(*(refs - {name} for qualified, name, owner, refs
                             in definitions if not {qualified, owner} & unused))
        now = {qualified for qualified, name in public.items()
               if name not in used} - set(EXPORT_ALLOWLIST)
        if now == unused:
            break
        unused = now
    assert not unused, sorted(unused)
