import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chroma.core import ColoredOrientation, EdgeColoredGraph, OrientedGraph
from chroma.constructions import (
    blowup_cycle_signature,
    extremal_no_pc_c4,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    random_oriented_graph,
    random_proper_complete_bipartite,
)
from chroma import formats
from chroma.extraction import construct_orientation
from chroma.formats import (
    ParseError,
    load,
    parse_auto,
    parse_corg,
    parse_ecg,
    parse_org,
    render_corg,
    render_ecg,
    render,
    render_org,
    save,
)
from chroma.transforms import dual_graph
from oracles import first_refused_row, per_arc_oriented_graph, reference_rows


# Every construction and transform that attaches a bipartition.
BIPARTITE_BUILDS = {
    "random-bipartite": lambda: random_bipartite_edge_colored(3, 5, 0.6, 4, 7),
    "random-bipartite-empty-side": lambda: random_bipartite_edge_colored(0, 4, 0.6, 2, 7),
    "proper-kst": lambda: random_proper_complete_bipartite(2, 5, 3),
    "dual": lambda: dual_graph(random_edge_colored_graph(6, 0.5, 3, 2)),
    "extremal-c4": lambda: extremal_no_pc_c4(2),
    **{
        f"blowup-sig-{r}-{k}": lambda r=r, k=k: blowup_cycle_signature(r, k)
        for r in (4, 6, 8) for k in (1, 2, 3)
    },
}


class TestEcgRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_plain(self, seed):
        rng = random.Random(seed)
        G = random_edge_colored_graph(rng.randint(0, 12), 0.5, rng.randint(1, 6), seed)
        assert parse_ecg(render_ecg(G)) == G

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bipartite_prefix(self, seed):
        rng = random.Random(seed)
        G = random_bipartite_edge_colored(
            rng.randint(0, 6), rng.randint(0, 6), 0.5, rng.randint(1, 4), seed
        )
        text = render_ecg(G)
        assert "bipartite" in text.splitlines()[0]
        assert parse_ecg(text) == G

    def test_nonprefix_bipartition_rejected(self):
        # .ecg stores side 1 as its size k, so only {0, ..., k-1} renders.
        G = EdgeColoredGraph(4, [(0, 1, 0), (2, 3, 1)], bipartition=([0, 2], [1, 3]))
        with pytest.raises(ValueError, match="prefix"):
            render_ecg(G)

    @pytest.mark.parametrize("name", sorted(BIPARTITE_BUILDS))
    def test_every_built_bipartition_round_trips(self, name):
        G = BIPARTITE_BUILDS[name]()
        assert G.bipartition is not None
        assert parse_ecg(render_ecg(G)) == G

    def test_fixed_text(self):
        G = EdgeColoredGraph(3, [(0, 1, 4), (1, 2, 0)])
        assert render_ecg(G) == "ecg 3 2\n0 1 4\n1 2 0\n"


def per_row_text(header, rows):
    """A header line, then one line of space-separated fields per row."""
    return "\n".join([header, *(" ".join(f"{x}" for x in row) for row in rows)]) + "\n"


class TestRenderPerRowForm:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_each_renderer(self, seed):
        rng = random.Random(seed)
        G = random_edge_colored_graph(rng.randint(0, 12), 0.5, rng.randint(1, 60), seed)
        B = random_bipartite_edge_colored(rng.randint(0, 6), rng.randint(0, 6), 0.5, 3, seed)
        D = random_oriented_graph(rng.randint(0, 12), 0.5, seed)
        _, CO, _ = construct_orientation(G, 2, 2)
        k = len(B.bipartition[0])
        assert render_ecg(G) == per_row_text(f"ecg {G.n} {G.m}", G.edges)
        assert render_ecg(B) == per_row_text(f"ecg {B.n} {B.m} bipartite {k}", B.edges)
        assert render_org(D) == per_row_text(f"org {D.n} {D.m}", D.arcs)
        assert render_corg(CO) == per_row_text(f"corg {CO.n} {CO.m}", CO.arcs)

    def test_no_rows(self):
        assert render_ecg(EdgeColoredGraph(0)) == "ecg 0 0\n"
        assert render_org(OrientedGraph(3, [])) == "org 3 0\n"
        assert render_corg(ColoredOrientation(EdgeColoredGraph(2), [])) == "corg 2 0\n"


class TestOrgCorgRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_org(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(0, 12), 0.5, seed)
        assert parse_org(render_org(D)) == D

    def test_corg(self):
        G = random_edge_colored_graph(10, 0.6, 4, 3)
        _, D, _ = construct_orientation(G, 2, 2)
        parsed = parse_corg(render_corg(D))
        assert parsed.arcs == D.arcs
        assert parsed.n == D.n
        # parse/render is the identity on parsed values
        assert parse_corg(render_corg(parsed)) == parsed

    def test_corg_host_is_arc_support(self):
        co = parse_corg("corg 3 2\n0 1 7\n2 1 5\n")
        assert co.host.edges == ((0, 1, 7), (1, 2, 5))


_BLANKS = ("", " ", "\t", " \t ")
_GAPS = (" ", "  ", "\t", " \t")
_ENDS = ("\n", "\r\n")


@st.composite
def _spaced(draw, text):
    """text with each line's single spaces widened to tabs and runs, its
    ends to CRLF, trailing whitespace added, and blank lines inserted
    before, between and after the lines."""
    out = []
    for line in text.splitlines() + [None]:
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.sampled_from(_BLANKS)) + draw(st.sampled_from(_ENDS)))
        if line is None:
            break
        fields = line.split(" ")
        spaced = fields[0]
        for field in fields[1:]:
            spaced += draw(st.sampled_from(_GAPS)) + field
        out.append(spaced + draw(st.sampled_from(_BLANKS)) + draw(st.sampled_from(_ENDS)))
    return "".join(out)


@st.composite
def _rendered_objects(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(("ecg", "bipartite", "org", "corg")))
    if kind == "ecg":
        return random_edge_colored_graph(rng.randint(0, 10), 0.5, rng.randint(1, 5), seed)
    if kind == "bipartite":
        return random_bipartite_edge_colored(
            rng.randint(0, 5), rng.randint(0, 5), 0.5, rng.randint(1, 4), seed
        )
    if kind == "org":
        return random_oriented_graph(rng.randint(0, 10), 0.5, seed)
    G = random_edge_colored_graph(rng.randint(0, 10), 0.6, rng.randint(1, 4), seed)
    return parse_corg(render_corg(construct_orientation(G, 2, 2)[1]))


class TestWhitespaceRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_spaced_render_parses_back(self, data):
        obj = data.draw(_rendered_objects())
        text = data.draw(_spaced(render(obj)))
        assert parse_auto(text) == obj

    def test_fixed_spacing(self):
        text = "\r\n \n ecg\t3  2 \r\n\t\n0 1\t4\t\r\n\n1  2 0 \n\n"
        assert parse_ecg(text) == EdgeColoredGraph(3, [(0, 1, 4), (1, 2, 0)])


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,needle",
        [
            ("", 1, "empty"),
            ("org 2 1\n0 1\n", 1, "expected `ecg`"),
            ("ecg x 0\n", 1, "not an integer"),
            ("ecg 2 2\n0 1 0\n", 2, "expected 2 edge lines"),
            ("ecg 2 0\n0 1 0\n", 2, "expected 0 edge lines"),
            ("ecg 2 1\n0 0 1\n", 2, "loop"),
            ("ecg 2 1\n0 3 1\n", 2, "invalid vertex id 3 for a graph on 2 vertices"),
            ("ecg 2 1\n0 1 -2\n", 2, "color must be a nonnegative integer, got -2"),
            ("ecg 3 2\n0 1 0\n1 0 3\n", 3, "duplicate edge"),
            ("ecg 4 1 bipartite 2\n0 1 0\n", 2, "cross"),
            ("ecg 2 1 bipartite 5\n0 1 0\n", 1, "out of range"),
            ("ecg 4 2 bipartite 2\n0 1 0\n0 9 0\n", 2, "cross"),
            ("ecg 3 2\n0 9 0\n1 1 0\n", 2, "invalid vertex id 9"),
            ("ecg 3 2\n0 1 0\n\n1 0 3\n", 4, "duplicate edge {0,1}"),
            ("ecg 3 2\n1 1 0\n0 x 0\n", 2, "loop"),
            ("ecg 3 2\n0 x 0\n1 1 0\n", 2, "not an integer"),
            ("ecg 3 2\n0 1 -1\n0 1\n", 2, "nonnegative integer, got -1"),
            # The right token total in the wrong per-line widths or line count.
            ("ecg 3 2\n0 1\n1 2 0 5\n", 2, "expected 3 fields for an edge, got 2"),
            ("ecg 3 2\n0 1 0 1\n2 0\n", 2, "expected 3 fields for an edge, got 4"),
            ("ecg 3 2\n\n0 1 0\n\n1 2\n0\n", 6, "expected 2 edge lines, found 3"),
            ("ecg 3 2\n0 1 0 1 2 0\n", 2, "expected 2 edge lines, found 1"),
            ("ecg 3 2\n0 1 0\n1 2\n5\n", 4, "expected 2 edge lines, found 3"),
            ("ecg 3 2\n0 1 0\n0 1\n2 0\n", 4, "expected 2 edge lines, found 3"),
            # m well-formed lines plus one of another width.
            ("ecg 3 2\n0 1 0\n1 2 0\n5\n", 4, "expected 2 edge lines, found 3"),
            # A ";" in the file is a token like any other.
            ("ecg 4 1\n0 1 ;\n", 2, "not an integer: ';'"),
            ("ecg 4 2\n0 1 ;\n; 2 3 4\n", 2, "not an integer: ';'"),
            ("ecg 4 0\n0 1 2\n", 2, "expected 0 edge lines, found 1"),
        ],
    )
    def test_ecg_errors(self, text, line, needle):
        with pytest.raises(ParseError) as exc:
            parse_ecg(text)
        assert exc.value.line == line
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "parse,text,line,needle",
        [
            (parse_org, "org 3 2\n0 1\n1 0\n", 3, "anti-parallel"),
            (parse_org, "org 3 2\n0 1\n0 1\n", 3, "duplicate arc"),
            (parse_corg, "corg 3 1\n0 1\n", 2, "expected 3 fields"),
            (parse_corg, "corg 3 2\n0 1 5\n1 0 5\n", 3, "duplicate edge {0,1}"),
            (parse_corg, "corg 3 2\n0 1 5\n0 1 5\n", 3, "line 3: duplicate edge {0,1}"),
            (parse_corg, "corg 3 1\n0 1 -5\n", 2, "nonnegative integer, got -5"),
            (parse_corg, "corg 3 2\n2 2 0\n0 1\n", 2, "loop"),
            (parse_org, "org 3 2\n0 1\n1 0\n", 3, "line 3: anti-parallel arc pair between 1 and 0"),
            (parse_org, "org 3 1\n0 7\n", 2, "invalid vertex id 7"),
            (parse_org, "org 3 2\n0 1\n0 1 2\n", 3, "expected 2 fields"),
            # The right token total in the wrong per-line widths or line count.
            (parse_org, "org 3 2\n0\n1 2 0\n", 2, "expected 2 fields for an arc, got 1"),
            (parse_org, "org 3 2\n0 1 1\n2\n", 2, "expected 2 fields for an arc, got 3"),
            (parse_org, "org 3 2\n0 1 1 2\n", 2, "expected 2 arc lines, found 1"),
            (parse_corg, "corg 3 2\n0 1\n1 2 0 5\n", 2,
             "expected 3 fields for a colored arc, got 2"),
            (parse_corg, "corg 3 2\n0 1 5 1\n2 0\n", 2,
             "expected 3 fields for a colored arc, got 4"),
            (parse_corg, "corg 3 2\n0 1 5\n1\n2 0\n", 4, "expected 2 arc lines, found 3"),
            (parse_org, "org 3 2\n0 1\n1 2\n0\n", 4, "expected 2 arc lines, found 3"),
        ],
    )
    def test_org_corg_errors(self, parse, text, line, needle):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line
        assert needle in str(exc.value)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_error_line_is_first_refused_row(self, data):
        # One body row of a valid object is broken by one structure rule, and
        # maybe a row is garbled too. The error names the first fault in the
        # file: the first row a linear constructor replay refuses among the
        # rows before the garbled one, else the garbled row.
        obj = data.draw(_rendered_objects())
        n, bip = obj.n, getattr(obj, "bipartition", None)
        if isinstance(obj, EdgeColoredGraph):
            rows = [list(e) for e in obj.edges]

            def build(rows):
                return EdgeColoredGraph(n, rows, bipartition=bip)
        elif isinstance(obj, ColoredOrientation):
            rows = [list(a) for a in obj.arcs]

            def build(rows):
                return ColoredOrientation(EdgeColoredGraph(n, rows), rows)
        else:
            rows = [list(a) for a in obj.arcs]

            def build(rows):
                return OrientedGraph(n, rows)
        assume(rows)
        header = render(obj).splitlines()[0]
        kinds = ["range", "loop"]
        if len(rows[0]) == 3:
            kinds.append("color")
        if len(rows) > 1:
            kinds += ["repeat", "reverse"]
        if bip is not None and max(map(len, bip)) > 1:
            kinds.append("same side")
        i = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(kinds))
        row = rows[i]
        if kind == "range":
            row[data.draw(st.integers(0, 1))] = n + data.draw(st.integers(0, 3))
        elif kind == "loop":
            row[1] = row[0]
        elif kind == "color":
            row[2] = -data.draw(st.integers(1, 3))
        elif kind == "same side":
            side = data.draw(st.sampled_from([s for s in bip if len(s) > 1]))
            row[:2] = data.draw(st.permutations(sorted(side)))[:2]
        else:
            j = data.draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
            i, j = max(i, j), min(i, j)
            rows[i] = list(rows[j])
            if kind == "reverse":
                rows[i][:2] = rows[j][1::-1]
        garbled = data.draw(st.none() | st.integers(0, len(rows) - 1))
        lines = [" ".join(map(str, r)) for r in rows]
        if garbled is not None:
            lines[garbled] = lines[garbled].replace(" ", " x", 1)
        text = data.draw(_spaced("\n".join([header, *lines]) + "\n"))
        body_lines = [ln for ln, line in enumerate(text.splitlines(), 1) if line.split()][1:]
        replay = first_refused_row(build, rows[:garbled])
        with pytest.raises(ParseError) as exc:
            parse_auto(text)
        if replay is None:
            assert garbled is not None
            assert exc.value.line == body_lines[garbled]
            assert "not an integer: 'x" in str(exc.value)
        else:
            index, message = replay
            assert exc.value.line == body_lines[index]
            assert str(exc.value) == f"line {body_lines[index]}: {message}"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_org_error_is_per_arc_loops(self, data):
        # A random orientation with arcs repeated, reversed, looped or sent
        # out of range at random places: the bisecting error path names the
        # line and message of the first row that the per-arc loop refuses.
        n = data.draw(st.integers(2, 8))
        D = random_oriented_graph(n, 0.6, data.draw(st.integers(0, 99)))
        rows = [list(a) for a in D.arcs]
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["repeat", "reverse", "loop", "range"]))
            if kind in ("repeat", "reverse") and rows:
                t, h = data.draw(st.sampled_from(rows))
                row = [t, h] if kind == "repeat" else [h, t]
            elif kind == "loop":
                v = data.draw(st.integers(0, n - 1))
                row = [v, v]
            else:
                row = [data.draw(st.integers(0, n - 1)), n]
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        index, message = first_refused_row(lambda rs: per_arc_oriented_graph(n, rs), rows)
        text = f"org {n} {len(rows)}\n" + "".join(f"{t} {h}\n" for t, h in rows)
        with pytest.raises(ParseError) as exc:
            parse_org(text)
        assert str(exc.value) == f"line {index + 2}: {message}"

    def test_line_number_in_message(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ecg("ecg 2 1\n0 0 1\n")

    def test_blank_body_without_edges(self):
        assert parse_ecg("ecg 4 0\n\n \n") == EdgeColoredGraph(4, [])


class TestParserRobustness:
    @settings(max_examples=150, deadline=None)
    @given(st.text(st.sampled_from("ecorg 0123456789ab-\n \t;"), max_size=60))
    def test_garbage_never_crashes(self, text):
        # arbitrary input either parses to a valid object or raises ParseError
        try:
            obj = parse_auto(text)
        except ParseError:
            return
        assert isinstance(obj, (EdgeColoredGraph, OrientedGraph, ColoredOrientation))

    def test_extra_fields_rejected(self):
        with pytest.raises(ParseError, match="expected 3 fields"):
            parse_ecg("ecg 2 1\n0 1 0 junk\n")


# Body tokens: mostly small ints, and now and then one that int() reads
# differently from a digit string, or not at all.
_BODY_TOKENS = tuple("0123456789") * 4 + ("-3", "+4", "1_0", "\u0663", ";", "1;2", "a")
# Gaps: mostly a space. Some are whitespace inside a line (\x1f, \xa0,
# \u3000), others line breaks to str.splitlines (\x0b, \x0c, \x1c, \x85, \r).
_BODY_GAPS = (" ",) * 12 + (
    "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000", "\r",
)
# What a line may start or end with.
_BODY_ENDS = ("", " ", "\t", "\xa0")


@st.composite
def _bodies(draw, width):
    """(body text, m): lines of width - 1 to width + 1 tokens among blank
    and whitespace-only ones, and an m that is the nonblank line count, one
    less, one more, or 0."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append("".join(draw(st.lists(st.sampled_from(_BODY_GAPS), max_size=2))))
            continue
        count = draw(st.sampled_from((width,) * 4 + (width - 1, width + 1)))
        line = draw(st.sampled_from(_BODY_ENDS))
        for k in range(count):
            if k:
                line += draw(st.sampled_from(_BODY_GAPS))
            line += draw(st.sampled_from(_BODY_TOKENS))
        lines.append(line + draw(st.sampled_from(_BODY_ENDS)))
    text = "\n".join(lines)
    nonblank = sum(1 for line in text.splitlines() if line.split())
    m = draw(st.sampled_from([k for k in (nonblank, nonblank - 1, nonblank + 1, 0) if k >= 0]))
    return text, m


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return e.line, str(e)


class TestTokenizerMatchesReference:
    """The tokenizer checks the body's shape on the tokens of one split; it
    accepts, refuses and reads exactly what reference_rows, which splits
    each line on its own, does."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rows(self, data):
        width = data.draw(st.sampled_from((2, 3)))
        text, m = data.draw(_bodies(width))
        lines = ["header", *text.splitlines()]
        outcomes = []
        for rows in (formats._rows, reference_rows):
            try:
                outcomes.append(rows(lines, 1, m, width))
            except ValueError:
                outcomes.append(ValueError)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parse_errors(self, data):
        parse = data.draw(st.sampled_from((parse_ecg, parse_org, parse_corg)))
        magic, width = {parse_ecg: ("ecg", 3), parse_org: ("org", 2), parse_corg: ("corg", 3)}[parse]
        body, m = data.draw(_bodies(width))
        text = f"{magic} 10 {m}\n{body}\n"
        new = _outcome(parse, text)
        with mock.patch.object(formats, "_rows", reference_rows):
            assert _outcome(parse, text) == new


class TestAutoAndFiles:
    def test_dispatch(self):
        assert isinstance(parse_auto("ecg 1 0\n"), EdgeColoredGraph)
        assert isinstance(parse_auto("org 1 0\n"), OrientedGraph)
        assert isinstance(parse_auto("corg 1 0\n"), ColoredOrientation)
        with pytest.raises(ParseError, match="unknown header"):
            parse_auto("zzz 1 0\n")

    def test_save_load(self, tmp_path):
        G = random_edge_colored_graph(7, 0.5, 3, 5)
        path = tmp_path / "g.ecg"
        save(G, path)
        assert load(path) == G
        D = random_oriented_graph(6, 0.5, 5)
        path = tmp_path / "d.org"
        save(D, path)
        assert load(path) == D

    def test_render_dispatch(self, tmp_path):
        G = random_edge_colored_graph(7, 0.5, 3, 5)
        D = random_oriented_graph(6, 0.5, 5)
        _, CO, _ = construct_orientation(G, 2, 2)
        assert render(G) == render_ecg(G)
        assert render(D) == render_org(D)
        assert render(CO) == render_corg(CO)
        path = tmp_path / "d.corg"
        save(CO, path)
        assert path.read_text() == render_corg(CO)
        with pytest.raises(TypeError, match="cannot render"):
            render(G.edges)
