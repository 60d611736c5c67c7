import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iterlinopt"

# a row of the README's "Tolerances" table: | `NAME` | module | value | ...
ROW = re.compile(r"^\| `([A-Z_]+)` \| (\w+) \| ([^|]+?) \|")


def _table():
    """{constant: (module, value text)} from the README's Tolerances table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [ROW.match(line) for line in section.splitlines()]
    return {m[1]: (m[2], m[3]) for m in rows if m}


def _constants(module):
    """The module-level NAME = literal assignments of a package module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


def test_every_row_names_a_constant_with_its_value():
    table = _table()
    assert len(table) >= 20
    for name, (module, value) in table.items():
        constants = _constants(module)
        assert name in constants, f"{name} is not a constant of {module}"
        assert constants[name] == float(value), (name, constants[name], value)


def test_every_tolerance_constant_has_a_row():
    table = _table()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _constants(path.stem):
            if name.endswith("_TOL"):
                assert table.get(name, (None,))[0] == path.stem, (
                    f"{path.stem}.{name} has no row in the README's "
                    "Tolerances table")


def test_no_unnamed_tolerance_literals():
    """A float literal in (0, 1e-5) is a tolerance, so it may appear only as
    the value of a module-level NAME = literal assignment, which names it
    (and, for a *_TOL name, the test above ties to its Tolerances row)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)}
        found += [f"{path.name}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and type(node.value) is float and 0.0 < node.value < 1e-5
                  and id(node) not in named]
    assert not found, found
