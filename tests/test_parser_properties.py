"""Property tests for the four text parsers and the CLI around them.

On any text file a parser either returns a result or raises its own error
class, and the CLI turns that error into exit 1 with a single ``error:``
line on stderr, never a traceback.
"""

import contextlib
import io
import itertools
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from iterlinopt import (  # noqa: E402
    ConvexDomain,
    DomainError,
    ElliptopeError,
    GraphFormatError,
    WeightedGraph,
    load_domain,
    load_graph,
    read_matrix_text,
)
from iterlinopt.cli import CliError, _parse_start_vector, main  # noqa: E402

NUMBERS = ["0", "1", "2", "3", "-1", "0.5", "-0.25", "1e308", "-1e308", "nan",
           "inf", "1e-320", "2049", "00", "+1", "1_0", "x", ""]
JUNK = st.text(alphabet="0123456789 .,;=#-+eE\t\n\rxabc", max_size=40)
ANY = st.text(max_size=60).filter(lambda t: not any(0xD800 <= ord(c) < 0xE000
                                                     for c in t))


def _lines(line):
    return st.lists(line, max_size=6).map("\n".join)


def _words(words, max_size=4):
    return st.lists(st.sampled_from(words), max_size=max_size).map(" ".join)


# graph and coordinate files: words of numbers on lines
WORDS_TEXT = st.one_of(_lines(st.one_of(_words(NUMBERS), JUNK)), ANY)
MATRIX_TEXT = st.one_of(_lines(st.one_of(_words(NUMBERS, 5), JUNK)), ANY)

KEYS = ["kind", "center", "radius", "shape", "vertices", "apex", "base_center",
        "base_radius", "n", "rank", "restarts", "seed", "KIND", ""]
VALUES = ["ball", "disk", "ellipsoid", "ellipse", "polytope", "cone",
          "elliptope", "sphere", "1,0", "0 0", "2", "-1", "0", "4 0; 0 1",
          "1 0; 0", "1,1; 1,-1; -1,1", ";", "nan", "inf", "1e308", "x", ""]
DOMAIN_LINE = st.one_of(
    st.builds(lambda k, v: f"{k}={v}", st.sampled_from(KEYS),
              _words(VALUES, 2)),
    JUNK)
DOMAIN_TEXT = st.one_of(_lines(DOMAIN_LINE), ANY)

_counter = itertools.count()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


def _write(workdir, text):
    path = workdir / f"input-{next(_counter)}.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def _rejected_cleanly(code, err):
    lines = err.strip().splitlines()
    return code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(text=WORDS_TEXT)
def test_load_graph_returns_or_raises_its_own_error(workdir, text):
    path = _write(workdir, text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = load_graph(path)
    except GraphFormatError:
        assert _rejected_cleanly(*_run(["maxcut", "--graph", path]))
        return
    assert isinstance(g, WeightedGraph) and g.n >= 2 and g.edges


@settings(max_examples=150, deadline=None)
@given(text=MATRIX_TEXT)
def test_read_matrix_text_returns_or_raises_its_own_error(workdir, text):
    path = _write(workdir, text)
    try:
        x = read_matrix_text(path)
    except ElliptopeError:
        assert _rejected_cleanly(*_run(["verify", "--matrix", path]))
        return
    assert x.ndim == 2 and x.shape[0] == x.shape[1] >= 1
    # a parsed matrix gets a verdict or a clean rejection, never a traceback
    assert _run(["verify", "--matrix", path])[0] in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(text=DOMAIN_TEXT)
def test_load_domain_returns_or_raises_its_own_error(workdir, text):
    path = _write(workdir, text)
    try:
        domain = load_domain(path)
    except DomainError:
        assert _rejected_cleanly(
            *_run(["iterate", "--domain", path, "--start", "0,1"]))
        return
    assert isinstance(domain, ConvexDomain)


@settings(max_examples=150, deadline=None)
@given(text=WORDS_TEXT)
def test_coordinate_file_returns_or_raises_its_own_error(workdir, text):
    path = _write(workdir, text)
    disk = _write(workdir, "kind=ball\ncenter=1,0\nradius=2\n")
    argv = ["iterate", "--domain", disk, "--start", path]
    try:
        x = _parse_start_vector(path)
    except CliError as exc:
        assert exc.code == 1 and str(exc).endswith(path)
        assert _rejected_cleanly(*_run(argv))
        return
    assert x.ndim == 1
    # parsed coordinates run, or are rejected in one line: exit 1 for the
    # domain's own error, 2 for a start whose squared norm overflows
    code, err = _run(argv)
    lines = err.strip().splitlines()
    assert (code == 0 and not lines) or (
        code in (1, 2) and len(lines) == 1 and lines[0].startswith("error: "))
