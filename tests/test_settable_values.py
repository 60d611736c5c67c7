import ast
from pathlib import Path

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
