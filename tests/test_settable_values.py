import ast
from pathlib import Path

import iterlinopt

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iterlinopt"

# The settable values of the package, as the quality aim in ROADMAP.md
# states them. Adding a knob means updating both numbers.
SETTABLE_VALUES = 55


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


# Exported names that no module of the package and no benchmark script
# calls, each with the reason it stays exported.
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


def _statements(path):
    """(defined name, referenced names) per top-level statement of a
    module; the name is a def or class statement's, else None."""
    for node in ast.parse(path.read_text()).body:
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else None)
        yield name, _referenced(node)


def test_every_export_has_a_production_caller():
    """Every name the package exports is used by the package's other
    modules or by the benchmark scripts under perfbench/, or is on
    EXPORT_ALLOWLIST: a function only the tests call belongs in the tests.
    A definition's use of itself does not count, nor a use inside an
    export that is itself unused (a result type only its unused producer
    builds)."""
    init = PACKAGE / "__init__.py"
    exported = set(iterlinopt.__all__)  # built from the package's export table
    statements = [st for path in sorted(PACKAGE.glob("*.py")) if path != init
                  for st in _statements(path)]
    bench = set().union(*(_referenced(ast.parse(path.read_text())) for path
                          in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))))
    unused = set()
    while True:
        used = bench.union(*(refs - {name} for name, refs in statements
                             if name not in unused))
        now = exported - used - set(EXPORT_ALLOWLIST)
        if now == unused:
            break
        unused = now
    assert not unused, sorted(unused)
