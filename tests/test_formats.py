import itertools
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from reference import joint_prob, make_cancer
from strategies import small_networks

from bnmia import formats, model
from bnmia.formats import (
    NetworkFormatError,
    emit_bif,
    emit_sexpr,
    load_document,
    parse_bif_subset,
    parse_sexpr,
)
from bnmia.model import BayesianNetwork, NodeSpec, validate
from bnmia.populations import make_product


def data_text(name: str) -> str:
    return resources.files("bnmia.data").joinpath(name).read_text(encoding="utf-8")


CANCER_SEXPR = data_text("cancer.sexp")
CANCER_BIF = data_text("cancer.bif")


def many_parent_network(parents: int) -> BayesianNetwork:
    """A ternary node C under `parents` ternary roots: 3^parents CPT rows,
    each summing to 1 exactly."""
    states = ("s0", "s1", "s2")
    roots = tuple(NodeSpec(f"P{i}", states, (), {(): (0.25, 0.25, 0.5)}) for i in range(parents))
    cpt = {
        combo: ((1 + sum(combo) % 7) / 16, 0.25, (11 - sum(combo) % 7) / 16)
        for combo in itertools.product(range(3), repeat=parents)
    }
    child = NodeSpec("C", states, tuple(root.name for root in roots), cpt)
    return BayesianNetwork(roots + (child,), ("C",), "one-hot")


class TestParseSexpr:
    def test_cancer_listing(self):
        bn = parse_sexpr(CANCER_SEXPR)
        assert bn.node_names == ("Pollution", "Smoker", "Cancer", "Xray", "Dyspnoea")
        assert bn.node("Smoker").cpt[()] == (0.3, 0.7)
        assert bn.node("Pollution").cpt[()] == (0.9, 0.1)
        # Cancer | (Pollution, Smoker): low/True row
        assert bn.node("Cancer").cpt[(0, 0)] == (0.03, 0.97)
        assert bn.node("Cancer").cpt[(1, 1)] == (0.02, 0.98)
        assert bn.node("Xray").cpt[(1,)] == (0.2, 0.8)
        assert bn.node("Dyspnoea").cpt[(0,)] == (0.65, 0.35)
        assert validate(bn) == []

    def test_single_fair_coin(self):
        bn = parse_sexpr(
            "(define NETWORK '((variable A (type discrete (2) (f t)))"
            " (probability (A) (table 0.5 0.5))))"
        )
        assert bn.node_names == ("A",)
        assert bn.node("A").cpt[()] == (0.5, 0.5)

    def test_clauses_without_define_wrapper(self):
        bn = parse_sexpr(
            "((variable A (type discrete (2) (f t))) (probability (A) (table 0.25 0.75)))"
        )
        assert bn.node("A").cpt[()] == (0.25, 0.75)

    def test_missing_cpt_row(self):
        text = CANCER_SEXPR.replace("((high True) 0.05 0.95)\n", "")
        with pytest.raises(NetworkFormatError, match=r"missing CPT row for \(high True\)"):
            parse_sexpr(text)

    def test_unbalanced_parens(self):
        with pytest.raises(NetworkFormatError, match="unbalanced"):
            parse_sexpr("((variable A (type discrete (2) (f t))")

    def test_unknown_clause_head(self):
        with pytest.raises(NetworkFormatError, match="unknown clause head"):
            parse_sexpr("((frobnicate A))")

    def test_row_length_mismatch(self):
        with pytest.raises(NetworkFormatError, match="entries, expected 2"):
            parse_sexpr(
                "((variable A (type discrete (2) (f t))) (probability (A) (table 0.5 0.25 0.25)))"
            )

    def test_undeclared_parent(self):
        with pytest.raises(NetworkFormatError, match="undeclared node"):
            parse_sexpr(
                "((variable A (type discrete (2) (f t)))"
                " (probability (A Z) ((x) 0.5 0.5)))"
            )

    def test_error_carries_position(self):
        try:
            parse_sexpr("((variable A (type discrete (2) (f t)))\n (bogus))")
        except NetworkFormatError as err:
            assert err.line == 2
        else:
            pytest.fail("expected a NetworkFormatError")

    def test_row_sum_out_of_tolerance_rejected(self):
        with pytest.raises(NetworkFormatError, match="does not sum to 1"):
            parse_sexpr(
                "((variable A (type discrete (2) (f t))) (probability (A) (table 0.5 0.6)))"
            )


class TestEmitSexpr:
    def test_round_trip_cancer(self):
        bn = parse_sexpr(CANCER_SEXPR)
        again = parse_sexpr(emit_sexpr(bn))
        assert again.nodes == bn.nodes

    def test_round_trip_product_30(self):
        bn = make_product(tuple((i + 1) / 31 for i in range(30)))
        again = parse_sexpr(emit_sexpr(bn))
        assert again.nodes == bn.nodes

    def test_emit_deterministic(self):
        bn = make_cancer()
        assert emit_sexpr(bn) == emit_sexpr(bn)

    def test_fixed_point(self):
        bn = parse_sexpr(CANCER_SEXPR)
        once = emit_sexpr(bn)
        assert emit_sexpr(parse_sexpr(once)) == once


class TestParseBif:
    def test_cancer_matches_sexpr_network(self):
        via_bif = parse_bif_subset(CANCER_BIF)
        via_sexpr = parse_sexpr(CANCER_SEXPR)
        assert via_bif.node_names == via_sexpr.node_names
        for a, b in zip(via_bif.nodes, via_sexpr.nodes):
            assert a.states == b.states
            assert a.parents == b.parents

    def test_cross_format_joint_probabilities(self):
        a = parse_bif_subset(CANCER_BIF).with_outputs((), model.ONE_HOT)
        b = parse_sexpr(CANCER_SEXPR).with_outputs((), model.ONE_HOT)
        for bits in itertools.product(range(2), repeat=5):
            rec = dict(zip(a.node_names, bits))
            assert joint_prob(a, rec) == pytest.approx(joint_prob(b, rec), abs=1e-12)

    def test_minimal_single_variable(self):
        bn = parse_bif_subset(
            "network unknown { }\n"
            "variable A { type discrete [ 2 ] { yes, no }; }\n"
            "probability ( A ) { table 0.2, 0.8; }\n"
        )
        assert bn.node("A").cpt[()] == (0.2, 0.8)

    def test_continuous_rejected(self):
        with pytest.raises(NetworkFormatError, match="unsupported: continuous"):
            parse_bif_subset(
                "variable A { type continuous; }\n"
            )

    def test_property_lines_ignored(self):
        bn = parse_bif_subset(
            "network unknown { }\n"
            "variable A {\n"
            "  type discrete [ 2 ] { yes, no };\n"
            "  property position = (100, 100) ;\n"
            "}\n"
            "probability ( A ) { table 0.2, 0.8; }\n"
        )
        assert bn.node("A").cpt[()] == (0.2, 0.8)

    def test_a_lone_quote_is_a_word(self):
        bn = parse_bif_subset(
            "variable A { type discrete [ 2 ] { ', no }; }\n"
            "probability ( A ) { table 0.2, 0.8; }\n"
        )
        assert bn.node("A").states == ("'", "no")

    def test_malformed_block_has_position(self):
        try:
            parse_bif_subset("variable A {\n  type discrete [ 2 ] { yes, no };\n}\nnonsense")
        except NetworkFormatError as err:
            assert err.line == 4
        else:
            pytest.fail("expected a NetworkFormatError")

    @pytest.mark.parametrize("name", ["asia.bif", "earthquake.bif", "survey.bif", "sachs.bif"])
    def test_bundled_benchmarks_parse_clean(self, name):
        bn = parse_bif_subset(data_text(name))
        assert validate(bn) == []

    def test_emit_bif_round_trip(self):
        for name in ("asia.bif", "cancer.bif", "earthquake.bif", "survey.bif", "sachs.bif"):
            bn = parse_bif_subset(data_text(name))
            once = emit_bif(bn)
            again = parse_bif_subset(once)
            assert again.nodes == bn.nodes, name
            assert emit_bif(again) == once, name


class TestManyRows:
    def test_many_parent_rows_round_trip(self):
        # 6,561 rows of one node in both dialects: a parse quadratic in a
        # node's rows takes about 4 s on them, a linear one a tenth of that.
        bn = many_parent_network(8)
        for emit, parse in ((emit_bif, parse_bif_subset), (emit_sexpr, parse_sexpr)):
            text = emit(bn)
            start = time.perf_counter()
            again = parse(text)
            assert time.perf_counter() - start < 2.0
            assert again.nodes == bn.nodes
            assert emit(again) == text


class TestLoadDocument:
    @pytest.mark.parametrize(
        "text, suffix",
        [
            (CANCER_SEXPR, ".sexp"),
            (CANCER_BIF, ".bif"),
            (CANCER_SEXPR, ".txt"),
            (CANCER_BIF, ".txt"),
            (CANCER_SEXPR, ".bif"),  # the text decides, not the name
            (CANCER_BIF, ".sexp"),
            ("\n\t  " + CANCER_SEXPR, ""),
            (CANCER_SEXPR[CANCER_SEXPR.index("'"):].rstrip()[:-1], ".net"),  # quoted body
        ],
    )
    def test_text_decides_the_format(self, tmp_path, text, suffix):
        path = tmp_path / f"net{suffix}"
        path.write_text(text, encoding="utf-8")
        assert load_document(path).nodes == make_cancer().nodes
        assert load_document(str(path)).nodes == make_cancer().nodes

    def test_errors_come_from_the_parser_the_text_selects(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("(variable", encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="unbalanced parentheses"):
            load_document(path)
        path.write_text("variable A", encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="line 1"):
            load_document(path)

    @settings(max_examples=60, deadline=None)
    @given(small_networks())
    def test_emit_load_emit_is_a_fixed_point(self, bn):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "network.net"
            for emit in (emit_sexpr, emit_bif):
                once = emit(bn)
                path.write_text(once, encoding="utf-8")
                assert emit(load_document(path)) == once


class TestFuzzSafety:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            ")",
            "((variable))",
            "((variable A))",
            "((probability (A) (table 0.5 0.5)))",
            "((variable A (type discrete (2) (f t))))",
            "'",
            "((variable A (type discrete (two) (f t))))",
        ],
    )
    def test_sexpr_rejects_with_position(self, text):
        with pytest.raises(NetworkFormatError):
            parse_sexpr(text)

    @pytest.mark.parametrize(
        "text",
        [
            "variable",
            "variable A",
            "variable A { type discrete [ x ] { a, b }; }",
            "probability ( ) { }",
            "probability ( A ) { table 0.5; ",
            "junk",
            "variable A { type discrete [ 2 ] { a }; }",
        ],
    )
    def test_bif_rejects_with_position(self, text):
        with pytest.raises(NetworkFormatError):
            parse_bif_subset(text)


VARIABLE_A = "variable A {\n  type discrete [ 2 ] { yes, no };\n}\n"

# The dialect, a malformed document, the start of its message, and the line
# and column the fault is reported at.
MALFORMED = [
    ("bif", VARIABLE_A[:-2], "unbalanced brackets: '{'", 1, 12),
    ("bif", VARIABLE_A.replace("2 ]", "2"), "unbalanced brackets: '['", 2, 17),
    ("bif", VARIABLE_A + "probability ( A {\n  table 0.2, 0.8;\n}\n",
     "unbalanced parentheses: '('", 4, 13),
    ("bif", VARIABLE_A + "}\n", "unbalanced brackets: unexpected '}'", 4, 1),
    ("bif", VARIABLE_A + "probability ( A ) {\n  table 0.2, 0.8\n}\n",
     "expected ';' ending this statement", 5, 3),
    ("bif", VARIABLE_A + "probability ( A | B ) {\n  (yes) 0.2, 0.8\n  (no) 0.5, 0.5;\n}\n",
     "expected ';' before '('", 6, 3),
    ("bif", "variable A {\n  type discrete [ 2 ] { yes, no } property x;\n}\n",
     "expected ';' before 'property'", 2, 35),
    ("bif", VARIABLE_A + "potential ( A ) { }\n", "unknown block 'potential'", 4, 1),
    ("bif", "network unknown {\n  property ( x;\n}\n", "unbalanced parentheses: '('", 2, 12),
    ("sexpr", "((variable A (type discrete (inf) (f t))))", "expected a state count, found 'inf'", 1, 30),
    ("sexpr", "((variable A (type discrete (2.5) (f t))))", "expected a state count, found '2.5'", 1, 30),
    ("sexpr", "((variable A (type discrete (2) (f t)))\n (probability (A) (table 0.5 0.5)",
     "unbalanced parentheses: '('", 2, 2),
    ("sexpr", "((variable A (type discrete (2) (f t))))\n (probability (A) (table 0.5 0.5)))",
     "unbalanced parentheses: unexpected ')'", 2, 35),
] + [
    # A state count is ASCII digits only, not any integer literal Python reads.
    case
    for count in ("2_0", "+2", "\u0662")
    for case in (
        ("bif", VARIABLE_A.replace("[ 2 ]", f"[ {count} ]"),
         f"expected a state count, found {count!r}", 2, 19),
        ("sexpr", f"((variable A (type discrete ({count}) (f t))))",
         f"expected a state count, found {count!r}", 1, 30),
    )
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("dialect, text, message, line, col", MALFORMED)
    def test_rejected_at_the_fault(self, dialect, text, message, line, col):
        parse = parse_bif_subset if dialect == "bif" else parse_sexpr
        with pytest.raises(NetworkFormatError) as info:
            parse(text)
        assert str(info.value).startswith(message)
        assert str(info.value).endswith(f"(line {line}, column {col})")
        assert (info.value.line, info.value.col) == (line, col)

    BIF_WORDS = [
        "network", "variable", "probability", "type", "discrete", "continuous", "table",
        "property", "{", "}", "[", "]", "(", ")", "|", ",", ";", "'", "A", "B", "2", "0.5", "yes",
    ]
    SEXPR_WORDS = [
        "define", "variable", "probability", "type", "discrete", "table", "(", ")", "'", "A", "B",
        "2", "0.5", "f", "t",
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(BIF_WORDS), max_size=40), st.sampled_from([" ", "\n"]))
    def test_bif_token_soup_raises_only_format_errors(self, words, sep):
        try:
            parse_bif_subset(sep.join(words))
        except NetworkFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SEXPR_WORDS), max_size=40), st.sampled_from([" ", "\n"]))
    def test_sexpr_token_soup_raises_only_format_errors(self, words, sep):
        try:
            parse_sexpr(sep.join(words))
        except NetworkFormatError:
            pass
