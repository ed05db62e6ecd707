"""A small imperative language and its recursive-descent parser.

Grammar (statements end with ';', blocks use braces)::

    program  := stmt+
    stmt     := assign | if | while | return | exprstmt | block
    assign   := IDENT '=' expr ';'
    if       := 'if' '(' expr ')' block ('else' block)?
    while    := 'while' '(' expr ')' block
    return   := 'return' expr ';'
    exprstmt := expr ';'
    block    := '{' stmt* '}'
    expr     := or-expr, with precedence  or < and < comparison < additive
                < multiplicative < unary minus < primary
    primary  := INT | IDENT | '(' expr ')'

Parsed trees are concrete-syntax flavored: binary operators, unary minus,
and expression parentheses all become explicit leaf nodes, so an operator
lives on a leaf that carries its token. Identifier tokens outside the
generic pool map to UNKNOWN and integer literals are bucketed, keeping the
token vocabulary small and closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import SyntaxNode, SyntaxTree, Vocabulary, renumber_preorder, validate

# Binary operators, canonical class order. Repair labels index into this list.
OPS_MINI = ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "and", "or"]
OP_INDEX = {op: i for i, op in enumerate(OPS_MINI)}

KEYWORDS = {"if", "else", "while", "return", "and", "or"}

IDENT_POOL = ["a", "b", "c", "i", "j", "k", "m", "n", "p", "q", "s", "t", "x", "y"]

INT_BUCKETS = ["<int:0>", "<int:1>", "<int:2-9>", "<int:10-99>", "<int:100+>"]

TYPE_SYMBOLS = [
    "program",
    "block",
    "assign-stmt",
    "if-stmt",
    "while-stmt",
    "return-stmt",
    "expr-stmt",
    "binop",
    "binop-operator",
    "unary",
    "unary-operator",
    "paren-expr",
    "lparen",
    "rparen",
    "int-literal",
    "identifier",
]

TOKEN_SYMBOLS = OPS_MINI + ["(", ")"] + INT_BUCKETS + IDENT_POOL

MINI_VOCAB = Vocabulary(TYPE_SYMBOLS, TOKEN_SYMBOLS)

# a wrongop pointer candidate is a leaf of this type
OPERATOR_TYPE_ID = MINI_VOCAB.type_id("binop-operator")


def int_bucket(value: int) -> str:
    if value == 0:
        return INT_BUCKETS[0]
    if value == 1:
        return INT_BUCKETS[1]
    if value <= 9:
        return INT_BUCKETS[2]
    if value <= 99:
        return INT_BUCKETS[3]
    return INT_BUCKETS[4]


class LexError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class ParseError(Exception):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"token {position}: {message}"
        if expected:
            detail += f" (expected one of {', '.join(expected)})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


@dataclass(frozen=True)
class Token:
    kind: str  # int | ident | keyword | op | punct
    text: str
    offset: int


_TWO_CHAR = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = set("+-*/%<>=")
_PUNCT = set("(){};")


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing; whitespace and '#' comments are dropped."""
    tokens: list[Token] = []
    i, end = 0, len(source)
    while i < end:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            while i < end and source[i] != "\n":
                i += 1
            continue
        if source[i : i + 2] in _TWO_CHAR:
            tokens.append(Token("op", source[i : i + 2], i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < end and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < end and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(Token("keyword" if word in KEYWORDS else "ident", word, i))
            i = j
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    return tokens


class _Builder:
    """Accumulates nodes with provisional ids; finalized by pre-order renumbering."""

    def __init__(self):
        self.nodes: list[SyntaxNode] = []

    def node(self, type_symbol: str, token: str | None = None, children: tuple[int, ...] = ()) -> int:
        nid = len(self.nodes)
        self.nodes.append(
            SyntaxNode(
                id=nid,
                type_id=MINI_VOCAB.type_id(type_symbol),
                token_id=None if token is None else MINI_VOCAB.token_id(token),
                children=children,
            )
        )
        return nid


class _Parser:
    # parentheses, unary minuses and blocks nested deeper than this are a
    # ParseError; a level costs at most four Python frames, so the deepest
    # program parses well inside the interpreter's recursion limit
    MAX_NESTING = 100

    def __init__(self, tokens: list[Token], builder: _Builder):
        self.tokens = tokens
        self.pos = 0
        self.b = builder
        self.depth = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        want = text if text is not None else kind
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            got = "end of input" if tok is None else repr(tok.text)
            raise ParseError(f"got {got}", self.pos, expected=(want,))
        return self.advance()

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def _nested(self, parse) -> int:
        """``parse()`` one nesting level below the token just consumed."""
        if self.depth == self.MAX_NESTING:
            raise ParseError(f"nesting deeper than {self.MAX_NESTING} levels", self.pos - 1)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def program(self) -> int:
        stmts = [self.statement()]
        while self.peek() is not None:
            stmts.append(self.statement())
        return self.b.node("program", children=tuple(stmts))

    def statement(self) -> int:
        if self.at("punct", "{"):
            return self.block()
        if self.at("keyword", "if"):
            return self.if_stmt()
        if self.at("keyword", "while"):
            return self.while_stmt()
        if self.at("keyword", "return"):
            self.advance()
            value = self.expr()
            self.expect("punct", ";")
            return self.b.node("return-stmt", children=(value,))
        if self.at("ident") and self._next_is_assign():
            target = self.advance()
            self.expect("op", "=")
            value = self.expr()
            self.expect("punct", ";")
            ident = self.b.node("identifier", token=target.text)
            return self.b.node("assign-stmt", children=(ident, value))
        value = self.expr()
        self.expect("punct", ";")
        return self.b.node("expr-stmt", children=(value,))

    def _next_is_assign(self) -> bool:
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return nxt is not None and nxt.kind == "op" and nxt.text == "="

    def block(self) -> int:
        self.expect("punct", "{")
        stmts = []
        while not self.at("punct", "}"):
            if self.peek() is None:
                raise ParseError("unterminated block", self.pos, expected=("}",))
            stmts.append(self._nested(self.statement))
        self.expect("punct", "}")
        return self.b.node("block", children=tuple(stmts))

    def while_stmt(self) -> int:
        self.expect("keyword", "while")
        self.expect("punct", "(")
        cond = self.expr()
        self.expect("punct", ")")
        body = self.block()
        return self.b.node("while-stmt", children=(cond, body))

    def if_stmt(self) -> int:
        self.expect("keyword", "if")
        self.expect("punct", "(")
        cond = self.expr()
        self.expect("punct", ")")
        then = self.block()
        if self.at("keyword", "else"):
            self.advance()
            other = self.block()
            return self.b.node("if-stmt", children=(cond, then, other))
        return self.b.node("if-stmt", children=(cond, then))

    # binary operators by precedence, loosest first; all left-associative
    _LEVELS = (
        ("or",),
        ("and",),
        ("<", ">", "<=", ">=", "==", "!="),
        ("+", "-"),
        ("*", "/", "%"),
    )
    _LEVEL_OF = {op: level for level, ops in enumerate(_LEVELS) for op in ops}

    def expr(self) -> int:
        """Unary operands joined by binary operators, reduced on an operator
        stack, so a chain costs no Python frames whatever its precedences."""
        operands = [self.unary()]
        pending: list[tuple[int, int]] = []  # (level, operator leaf)
        while True:
            tok = self.peek()
            level = -1
            if tok is not None and tok.kind in ("op", "keyword"):
                level = self._LEVEL_OF.get(tok.text, -1)
            while pending and pending[-1][0] >= level:
                op_leaf = pending.pop()[1]
                right = operands.pop()
                operands.append(self.b.node("binop", children=(operands.pop(), op_leaf, right)))
            if level < 0:
                return operands[0]
            self.advance()
            pending.append((level, self.b.node("binop-operator", token=tok.text)))
            operands.append(self.unary())

    def unary(self) -> int:
        if self.at("op", "-"):
            self.advance()
            op_leaf = self.b.node("unary-operator", token="-")
            operand = self._nested(self.unary)
            return self.b.node("unary", children=(op_leaf, operand))
        return self.primary()

    def primary(self) -> int:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos, expected=("expression",))
        if tok.kind == "int":
            self.advance()
            return self.b.node("int-literal", token=int_bucket(int(tok.text)))
        if tok.kind == "ident":
            self.advance()
            return self.b.node("identifier", token=tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            lp = self.b.node("lparen", token="(")
            inner = self._nested(self.expr)
            self.expect("punct", ")")
            rp = self.b.node("rparen", token=")")
            return self.b.node("paren-expr", children=(lp, inner, rp))
        raise ParseError(
            f"got {tok.text!r}", self.pos, expected=("int", "identifier", "(")
        )


def parse(source: str) -> SyntaxTree:
    """Parse source text into a validated tree with dense pre-order ids."""
    builder = _Builder()
    parser = _Parser(tokenize(source), builder)
    root = parser.program()
    tree = renumber_preorder(SyntaxTree.from_nodes(builder.nodes, root))
    validate(tree)
    return tree


def operator_nodes(tree: SyntaxTree) -> list[int]:
    """Ids of binary-operator leaves, ascending; the pointer-candidate set."""
    return sorted(n.id for n in tree.nodes.values() if n.type_id == OPERATOR_TYPE_ID)


def operator_class(tree: SyntaxTree, node_id: int) -> int:
    """Class index (into OPS_MINI) of the operator held by an operator leaf."""
    node = tree.node(node_id)
    symbol = None if node.token_id is None else MINI_VOCAB.token_symbol(node.token_id)
    if symbol not in OP_INDEX:
        raise ValueError(f"node {node_id} does not carry a known operator token")
    return OP_INDEX[symbol]
