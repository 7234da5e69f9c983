"""Text formats for graphs, orientations, and colored orientations.

`.ecg`: line 1 `ecg <n> <m> [bipartite <k>]` (the first k vertices form
side 1), then m lines `u v c`, all 0-indexed.
`.org`: line 1 `org <n> <m>`, then m lines `u v` meaning the arc u -> v.
`.corg`: line 1 `corg <n> <m>`, then m lines `u v c` (colored arcs).

Rendering is canonical (edges sorted ascending), so parse(render(x)) == x.
Parsers check only syntax (header, line count, field count, integers) and
hand the rows to the `chroma.core` constructors, which are the one place
structure is checked. One tokenizer serves all three formats: it joins the
nonblank body lines with a `;` separator token, splits the result once,
checks that the separators fall every field count + 1 tokens, and converts
every other token in one pass. Only when that or a constructor rejects the
body are the lines rescanned, to find the first offending one and raise a
line-numbered ParseError: the first syntax fault, or the first row the
constructor refuses, whichever comes first. The parser knows no structure
rule; it finds the refused row by bisecting over prefixes of the rows and
reports the constructor's own message.
"""
from __future__ import annotations

from itertools import chain

from .core import ColoredOrientation, EdgeColoredGraph, OrientedGraph


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int_fields(line_no: int, parts, count: int, what: str) -> list[int]:
    if len(parts) != count:
        raise ParseError(line_no, f"expected {count} fields for {what}, got {len(parts)}")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(line_no, f"not an integer: {p!r}") from None
    return out


def _header(text: str, magic: str):
    """Split text into lines and read the header, its first nonblank line.

    Returns (lines, line_no, fields); the body is lines[line_no:].
    """
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts:
            if parts[0] != magic:
                raise ParseError(i + 1, f"expected `{magic}` header, got {parts[0]!r}")
            return lines, i + 1, parts
    raise ParseError(1, f"empty input, expected a `{magic}` header")


class _Ints(dict):
    """Token -> int(token), converting each distinct token once."""

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def _rows(lines, line_no: int, m: int, width: int) -> list[tuple[int, ...]]:
    """The body lines[line_no:] as m rows of `width` integers.

    Exactly m body lines must have `width` fields and every other one must
    be blank; otherwise, or on a token that is not an integer, ValueError is
    raised, and _build names the line. The shape is checked on the tokens
    the rows are made of: the nonblank lines are joined with " ; " and split
    once. The tokens every width + 1 positions are dropped and the rest go
    through int(), which refuses a ";". One is left unless the m - 1
    inserted ";" tokens are exactly the dropped ones, that is unless every
    line has `width` fields and the file holds no ";". Vertex ids and
    colors repeat across a body, so each distinct token goes through int()
    once per parse and its repeats share that int.
    """
    rows = list(filter(None, map(str.strip, lines[line_no:])))
    if len(rows) != m:
        raise ValueError(f"expected {m} nonblank body lines, found {len(rows)}")
    if not m:
        return []
    tokens = " ; ".join(rows).split()
    if len(tokens) != (width + 1) * m - 1:
        raise ValueError(f"expected {m} body lines of {width} fields")
    del tokens[width::width + 1]
    fields = map(_Ints().__getitem__, tokens)
    return list(zip(*[fields] * width))


def _build(lines, line_no: int, m: int, width: int, what: str, build):
    """build(rows) for the body lines[line_no:] read as m rows of `width`
    integers, each row `what` ("an edge", "an arc", ...).

    Only when the body fails to tokenize or build refuses its rows is the
    body rescanned, in file order, to raise a ParseError at the first line
    at fault: the number of nonblank body lines, then each line's field
    count and integers, up to the first syntax fault. Before that fault,
    the first row that build refuses is found by bisecting over prefixes of
    the rows read; that is sound because every constructor rule judges a
    row only against the rows before it, so once a prefix is refused every
    longer one is too. The message is the constructor's own.
    """
    try:
        return build(_rows(lines, line_no, m, width))
    except ValueError:
        pass
    body = [(i, parts) for i, parts in enumerate(map(str.split, lines[line_no:]), line_no + 1)
            if parts]
    if len(body) != m:
        where = body[m][0] if len(body) > m else (body[-1][0] if body else line_no)
        noun = what.split()[-1]
        raise ParseError(where, f"expected {m} {noun} lines, found {len(body)}")
    rows, fault = [], None
    for ln, parts in body:
        try:
            rows.append(_int_fields(ln, parts, width, what))
        except ParseError as e:
            fault = e
            break
    # build accepts rows[:lo]. Once it refuses rows[:hi], fault is that refusal,
    # at row hi - 1; until then it is the syntax fault that ended the scan.
    lo, hi = 0, len(rows) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            build(rows[:mid])
        except ValueError as e:
            hi, fault = mid, ParseError(body[mid - 1][0], str(e))
        else:
            lo = mid
    raise fault


def render_ecg(G: EdgeColoredGraph) -> str:
    """Canonical `.ecg` text. A bipartition is written as the size k of
    side 1, so side 1 must be the vertex prefix {0, ..., k-1}."""
    header = f"ecg {G.n} {G.m}"
    if G.bipartition is not None:
        k = len(G.bipartition[0])
        if G.bipartition[0] != frozenset(range(k)):
            raise ValueError("bipartition side 1 is not a vertex prefix and cannot be rendered")
        header += f" bipartite {k}"
    return header + "\n" + "%d %d %d\n" * G.m % tuple(chain.from_iterable(G.edges))


def parse_ecg(text: str) -> EdgeColoredGraph:
    lines, line_no, parts = _header(text, "ecg")
    bip_k = None
    if len(parts) == 5 and parts[3] == "bipartite":
        n, m = _int_fields(line_no, parts[1:3], 2, "header")
        (bip_k,) = _int_fields(line_no, parts[4:5], 1, "bipartite size")
    elif len(parts) == 3:
        n, m = _int_fields(line_no, parts[1:3], 2, "header")
    else:
        raise ParseError(line_no, "header must be `ecg <n> <m> [bipartite <k>]`")
    if n < 0 or m < 0:
        raise ParseError(line_no, "n and m must be nonnegative")
    if bip_k is not None and not 0 <= bip_k <= n:
        raise ParseError(line_no, f"bipartite size {bip_k} out of range")

    bip = (range(bip_k), range(bip_k, n)) if bip_k is not None else None
    return _build(lines, line_no, m, 3, "an edge",
                  lambda rows: EdgeColoredGraph(n, rows, bipartition=bip))


def render_org(D: OrientedGraph) -> str:
    return f"org {D.n} {D.m}\n" + "%d %d\n" * D.m % tuple(chain.from_iterable(D.arcs))


def parse_org(text: str) -> OrientedGraph:
    lines, line_no, parts = _header(text, "org")
    n, m = _int_fields(line_no, parts[1:], 2, "header")
    if n < 0 or m < 0:
        raise ParseError(line_no, "n and m must be nonnegative")
    return _build(lines, line_no, m, 2, "an arc", lambda rows: OrientedGraph(n, rows))


def render_corg(D: ColoredOrientation) -> str:
    """Arcs with colors; the host is reconstructed on parse as the arcs'
    underlying edge-colored graph."""
    return f"corg {D.n} {D.m}\n" + "%d %d %d\n" * D.m % tuple(chain.from_iterable(D.arcs))


def parse_corg(text: str) -> ColoredOrientation:
    lines, line_no, parts = _header(text, "corg")
    n, m = _int_fields(line_no, parts[1:], 2, "header")
    if n < 0 or m < 0:
        raise ParseError(line_no, "n and m must be nonnegative")
    return _build(lines, line_no, m, 3, "a colored arc",
                  lambda rows: ColoredOrientation(EdgeColoredGraph(n, rows), rows))


def parse_auto(text: str):
    """Dispatch on the header token."""
    parts = text.split(None, 1)  # line boundaries are whitespace to str.split
    if not parts:
        raise ParseError(1, "empty input")
    magic = parts[0]
    if magic == "ecg":
        return parse_ecg(text)
    if magic == "org":
        return parse_org(text)
    if magic == "corg":
        return parse_corg(text)
    raise ParseError(1, f"unknown header {magic!r}")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_auto(f.read())


def render(obj) -> str:
    """Canonical text of a graph, orientation or colored orientation, in
    the format of its type."""
    if isinstance(obj, EdgeColoredGraph):
        return render_ecg(obj)
    if isinstance(obj, ColoredOrientation):
        return render_corg(obj)
    if isinstance(obj, OrientedGraph):
        return render_org(obj)
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


def save(obj, path) -> None:
    text = render(obj)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
