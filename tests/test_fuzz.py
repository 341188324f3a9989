"""Arbitrary input to the two text parsers and to the CLI fails cleanly.

The parsers raise only :class:`GraphError` subclasses, each naming its
line, and read a string and a file of the same text alike.  ``edgecolor
color`` and ``edgecolor verify`` on arbitrary bytes return 0, 1 or 2 and
never raise; every exit 2 names the line at fault.

Every vertex count an input can declare stays within 0..64: memory grows
with the declared count by design (``build_graph`` allocates one
adjacency list per vertex before the first edge is read), so a drawn
count in the billions would test the machine, not the parser.  Free text
is therefore drawn without ASCII digits, and every integer comes from a
small range.  Other Unicode ``Nd`` digits are drawn: the parsers refuse
them as integers.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from _util import graphs
from edgecolor.cli import main
from edgecolor.coloring import parse_coloring
from edgecolor.graph import GraphError, read_edge_list, write_edge_list

LINE_PREFIX = re.compile(r"line [1-9][0-9]*: ")
ERROR_PREFIX = re.compile(r"error: line [1-9][0-9]*: ")

small_int = st.integers(-3, 70).map(str)
junk = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="0123456789"), max_size=10
)
lines = st.one_of(
    st.tuples(small_int, small_int).map(" ".join),
    st.tuples(small_int, small_int, junk).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.sampled_from(["", "   ", "# comment", "0 1 # trailing", "7", "1 2 3", "x y", "\t1\t2\t"]),
    junk,
)
bodies = st.lists(lines, max_size=12)


@st.composite
def edge_list_texts(draw) -> str:
    """A header with 0..64 vertices (or a bad one) over mostly edge lines."""
    n = draw(st.integers(0, 64))
    vertex = st.integers(-1, n).map(str)
    body, edges = [], 0
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)):
            body.append(" ".join(draw(st.tuples(vertex, vertex))))
            edges += 1
        else:
            body.append(draw(lines))
    m = edges + draw(st.sampled_from([0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{n} {m}", f"{n} {m}", f"{n}", f"{n} {m} 0", f"-{n} 0"]))
    return "\n".join([header, *body]) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _outcome(parse, source):
    """The parse result, or the message of the GraphError it raised."""
    try:
        return parse(source)
    except GraphError as exc:
        message = str(exc)
        assert LINE_PREFIX.match(message), message
        return message


def _from_file(parse, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        with path.open(encoding="utf-8") as fh:
            return _outcome(parse, fh)


def _edges(source):
    return write_edge_list(read_edge_list(source))


@given(edge_list_texts())
@settings(max_examples=300)
def test_read_edge_list_fails_only_with_line_numbered_graph_errors(text):
    assert _outcome(_edges, text) == _from_file(_edges, text)


@given(st.lists(lines, max_size=12).map("\n".join), st.integers(0, 64))
@settings(max_examples=300)
def test_parse_coloring_fails_only_with_line_numbered_graph_errors(text, m):
    def colors(source):
        return parse_coloring(source, m)

    assert _outcome(colors, text) == _from_file(colors, text)


@st.composite
def file_bytes(draw, text_strategy) -> bytes:
    """Text from ``text_strategy``, encoded, now and then with arbitrary bytes after it."""
    return draw(text_strategy).encode() + draw(st.one_of(st.just(b""), st.binary(max_size=40)))


graph_files = st.one_of(graphs(max_n=8).map(write_edge_list), edge_list_texts())
dump_files = st.one_of(
    st.dictionaries(st.integers(0, 8), st.integers(0, 9)).map(
        lambda colors: "".join(f"{e} {c}\n" for e, c in colors.items())),
    st.lists(lines, max_size=10).map("\n".join),
)


def _run(command, files, *options):
    """``main([command, *files, *options])`` on the bytes in ``files``.

    ``color`` writes its dump next to its input, in the same temporary
    directory.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = Path(tmp) / f"in{i}"
            path.write_bytes(data)
            paths.append(str(path))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *paths, *options])
        return code, err.getvalue()


@given(file_bytes(graph_files), st.sampled_from(["naive", "color-edges", "recursive"]))
@settings(max_examples=100, deadline=None)
def test_cli_color_on_arbitrary_bytes(data, algo):
    code, err = _run("color", [data], "--algo", algo)
    assert code in (0, 1, 2)
    assert (code == 2) == bool(ERROR_PREFIX.match(err)), err


@given(file_bytes(graph_files), file_bytes(dump_files))
@settings(max_examples=100, deadline=None)
def test_cli_verify_on_arbitrary_bytes(graph, dump):
    code, err = _run("verify", [graph, dump])
    assert code in (0, 1, 2)
    assert (code == 2) == bool(ERROR_PREFIX.match(err)), err
