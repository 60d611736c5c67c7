import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

from iterlinopt.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _section(title):
    """The text of the README's "## title" section."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _quick_start():
    """The python block of the README's "Library quick start" section."""
    return _section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]


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


def test_usage_lines_parse():
    # optional parts, in brackets, are parsed too
    lines = [ln for ln in _section("Command line").splitlines()
             if ln.startswith("iterlinopt ")]
    assert {ln.split()[1] for ln in lines} == {
        "iterate", "verify", "census", "classify", "maxcut"}
    for line in lines:
        argv = shlex.split(re.sub(r"[][]", "", line))[1:]
        build_parser(argv).parse_args(argv)


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_backticked_flags_exist():
    # the parser carries the flags of the command its argv names only
    flags = {flag for name in _subparsers(build_parser([]))
             for a in _subparsers(build_parser([name]))[name]._actions
             for flag in a.option_strings}
    quoted = {flag for span in re.findall(r"`([^`]*)`", _section("Command line"))
              for flag in re.findall(r"--[a-z][a-z-]*", span)}
    assert quoted and quoted <= flags, quoted - flags
