import pytest

from treeformer.minilang import (
    LexError,
    MINI_VOCAB,
    OPS_MINI,
    ParseError,
    operator_class,
    operator_nodes,
    parse,
    tokenize,
)
from treeformer.trees import preorder, validate


def ttype(tree, nid):
    return MINI_VOCAB.type_symbol(tree.node(nid).type_id)


def ttoken(tree, nid):
    token_id = tree.node(nid).token_id
    return None if token_id is None else MINI_VOCAB.token_symbol(token_id)


class TestTokenize:
    def test_assignment(self):
        kinds = [(t.kind, t.text) for t in tokenize("a = 1")]
        assert kinds == [("ident", "a"), ("op", "="), ("int", "1")]

    def test_longest_match(self):
        assert [t.text for t in tokenize("<= <")] == ["<=", "<"]
        assert [t.text for t in tokenize("a == b = c")] == ["a", "==", "b", "=", "c"]

    def test_lex_error_offset(self):
        with pytest.raises(LexError) as err:
            tokenize("a $ b")
        assert err.value.offset == 2

    def test_comments_and_whitespace(self):
        toks = tokenize("a = 1; # trailing note\nb = 2;")
        assert [t.text for t in toks] == ["a", "=", "1", ";", "b", "=", "2", ";"]

    def test_keywords(self):
        kinds = {t.text: t.kind for t in tokenize("if else while return and or foo")}
        assert kinds["if"] == kinds["and"] == "keyword"
        assert kinds["foo"] == "ident"


class TestParse:
    def test_assign_shape(self):
        tree = parse("a = b + c;")
        root = tree.node(tree.root)
        assert ttype(tree, tree.root) == "program"
        (stmt,) = root.children
        assert ttype(tree, stmt) == "assign-stmt"
        target, value = tree.node(stmt).children
        assert ttype(tree, target) == "identifier" and ttoken(tree, target) == "a"
        assert ttype(tree, value) == "binop"
        left, op, right = tree.node(value).children
        assert ttoken(tree, op) == "+" and ttype(tree, op) == "binop-operator"
        assert ttoken(tree, left) == "b" and ttoken(tree, right) == "c"

    def test_precedence(self):
        tree = parse("a = b + c * t;")
        stmt = tree.node(tree.root).children[0]
        _, value = tree.node(stmt).children
        left, op, right = tree.node(value).children
        assert ttoken(tree, op) == "+"
        assert ttype(tree, right) == "binop"
        assert ttoken(tree, tree.node(right).children[1]) == "*"

    def test_left_associativity(self):
        tree = parse("x = a - b - c;")
        stmt = tree.node(tree.root).children[0]
        _, value = tree.node(stmt).children
        left, op, _ = tree.node(value).children
        assert ttype(tree, left) == "binop"  # (a - b) - c

    def test_unclosed_paren(self):
        with pytest.raises(ParseError, match=r"\)"):
            parse("a = (b + c;")

    def test_paren_nodes_are_leaves(self):
        tree = parse("a = (b + c);")
        stmt = tree.node(tree.root).children[0]
        _, value = tree.node(stmt).children
        assert ttype(tree, value) == "paren-expr"
        lp, inner, rp = tree.node(value).children
        assert ttype(tree, lp) == "lparen" and ttoken(tree, lp) == "("
        assert ttype(tree, rp) == "rparen" and ttoken(tree, rp) == ")"
        assert ttype(tree, inner) == "binop"

    def test_unary_minus(self):
        tree = parse("a = -1;")
        stmt = tree.node(tree.root).children[0]
        _, value = tree.node(stmt).children
        assert ttype(tree, value) == "unary"
        op, operand = tree.node(value).children
        assert ttype(tree, op) == "unary-operator"
        assert ttype(tree, operand) == "int-literal"

    def test_if_else_and_while(self):
        tree = parse("if (a < b) { x = 1; } else { x = 2; } while (i < n) { i = i + 1; }")
        kinds = [ttype(tree, nid) for nid in tree.node(tree.root).children]
        assert kinds == ["if-stmt", "while-stmt"]
        if_node = tree.node(tree.node(tree.root).children[0])
        assert len(if_node.children) == 3

    def test_int_buckets(self):
        tree = parse("a = 0; b = 1; c = 5; x = 42; y = 1000;")
        lits = [nid for nid in preorder(tree) if ttype(tree, nid) == "int-literal"]
        assert [ttoken(tree, nid) for nid in lits] == [
            "<int:0>", "<int:1>", "<int:2-9>", "<int:10-99>", "<int:100+>",
        ]

    def test_unknown_identifier_pools_to_unknown(self):
        tree = parse("zebra = 1;")
        stmt = tree.node(tree.root).children[0]
        target = tree.node(stmt).children[0]
        assert ttoken(tree, target) == "<unk>"

    def test_valid_and_preorder_dense(self):
        tree = parse("s = 0; while (s < 5) { s = s + 1; }")
        validate(tree)
        assert preorder(tree) == list(range(len(tree)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("a = 1; )")

    @pytest.mark.parametrize("source, at", [
        ("x = " + "(" * 200 + "1" + ")" * 200 + ";", 102),
        ("x = " + "-" * 2000 + "1;", 102),
        ("{" * 600 + "}" * 600, 100),
    ], ids=["parens-200", "unary-2000", "blocks-600"])
    def test_deep_nesting_named(self, source, at):
        """Nesting past the bound raised a bare RecursionError (at 110
        parentheses, 984 unary minuses); now a ParseError at the token that
        opens level 101."""
        with pytest.raises(ParseError, match=f"^token {at}: nesting deeper than 100 levels$"):
            parse(source)

    @pytest.mark.parametrize("chain", ["", "a or b and c == d < e + f * "],
                             ids=["bare", "operator-chain"])
    def test_nesting_within_bound_parses(self, chain):
        """A chain of every precedence inside each level costs no extra frames."""
        tree = parse("x = " + (chain + "(") * 100 + "1" + ")" * 100 + ";")
        assert sum(ttype(tree, nid) == "paren-expr" for nid in tree.nodes) == 100

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("")


class TestOperatorNodes:
    def test_candidates_are_exactly_operator_leaves(self):
        tree = parse("s = a + b * 2; if ((s % 2) == 0) { s = s - 1; }")
        ops = operator_nodes(tree)
        symbols = sorted(ttoken(tree, nid) for nid in ops)
        assert symbols == ["%", "*", "+", "-", "=="]
        op_type = MINI_VOCAB.type_id("binop-operator")
        expected = sorted(n.id for n in tree.nodes.values() if n.type_id == op_type)
        assert ops == expected
        for nid in ops:
            assert tree.node(nid).is_leaf()

    def test_operator_class_round_trip(self):
        tree = parse("x = a and b;")
        (op,) = operator_nodes(tree)
        assert OPS_MINI[operator_class(tree, op)] == "and"

    def test_operator_class_rejects_non_operator(self):
        tree = parse("x = a and b;")
        with pytest.raises(ValueError):
            operator_class(tree, tree.root)


def test_parse_deterministic():
    src = "s = 0; while (s < 9) { s = s + 2; }"
    assert parse(src) == parse(src)
