import contextlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quick_start():
    """The python block of the README's "Library quick start" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _agrees(printed, comment):
    """A comment token matches a printed token exactly, or as its prefix when
    it ends in '...', or as a bound on its magnitude when it starts with
    '~'."""
    if comment.endswith("..."):
        return printed.startswith(comment[:-3])
    if comment.startswith("~"):
        return abs(float(printed)) < 10 * float(comment[1:])
    return printed == comment


def test_quick_start_runs_and_prints_what_its_comments_say():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    comments = [line.split("#", 1)[1].split() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(comments)
    for got, want in zip(printed, comments):
        assert len(got) == len(want) and all(map(_agrees, got, want)), (got, want)
