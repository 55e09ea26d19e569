"""Recursive-descent parser for RuLa source, in one pass.

Statements, literals and types dispatch on their first token.  An
expression parses one primary (name, ``#name``, call, dotted chain,
literal, ``get name``, ``( ... )`` or ``[ ... ]``) and lets the next token
decide what it becomes: ``<#repeaters(`` a rule call, an arithmetic
operator a flat TermExpr (precedence climbing with one level), a comparison
operator a CompExpr, ``->`` after a call a send.  Each position admits the
forms the grammar admits there (a call argument is never a comparison,
``(a)`` is a one-element tuple, ``get x`` ends before an operator).  Only
where the grammar needs it does the parser back off: from a call whose
arguments do not parse to the bare name, from ``name <`` to a comparison,
from a parenthesised term to a tuple, and from a capitalised keyword
(``Set``) to a name.  Failures record the furthest position reached and the
token classes expected there, which ParseError reports.

Three repairs of the published grammar: comparison operators match longest
first ("<=" is not "<" then "="); keywords match on a word boundary only
("promoted" is no "promote"); keywords match in any case ("RULE", "Let",
"TRUE") but only their lower-case spellings are reserved.
"""

from __future__ import annotations

import re

from . import ast

RESERVED = frozenset(
    "let import if else for in match ruleset rule cond act set get true false promote".split()
)
TYPE_WORDS = frozenset("int u_int float bool str vec Qubit Repeater Message Result".split())
# Nesting limit for ( [ { brackets: a program this deep still parses,
# analyzes and compiles within Python's default recursion limit.
MAX_DEPTH = 100

_NOT_IDENT = RESERVED | TYPE_WORDS
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_SIGNS = frozenset("+-")
_LITERAL_CHARS = _IDENT_START | _SIGNS | frozenset('"0123456789')
_OPERAND_CHARS = _LITERAL_CHARS | frozenset("#(")
_EXPR_CHARS = _OPERAND_CHARS | frozenset("[")
_ARITH_CHARS = frozenset("+-*/%^")
_GAP_CHARS = frozenset(" \n\t\r/")
_TYPES = {t.lower(): t for t in TYPE_WORDS}
# Statement keywords; _Parser._<word> parses the statement each one starts.
_STMT_WORDS = frozenset(("let", "if", "for", "match", "promote", "set"))

# Token classes expected where a construct cannot start.
_LIT = ("true", "false", "boolean", "string", "identifier", "number", '"0b"', '"0x"', '"0u"')
_OPERAND = _LIT + ("get", '"#"', '"("')
_EXPR = _OPERAND + ('"["',)
_STMT = _EXPR + tuple(_STMT_WORDS)
_TYPE = tuple(_TYPES.values()) + ("type",)

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*").match
_GAP = re.compile(r"(?:[ \t\n\r]+|//[^\n]*\n?|/\*(?:/|.*?\*/|.*))*", re.S).match
_NUMBER = re.compile(r"(\d+)(?:\.(\d+))?(?:e([+-]?)(\d+))?").match
_INT = re.compile(r"\d+").match
_STRING = re.compile(r'"[^"\\]*').match
_HEX = re.compile(r"[0-9a-fA-F]*").match
_BINARY = re.compile(r"[01]*").match

# What the last primary was (_Parser.kind), for the per-position rules above.
_G, _VC, _FC, _WORD_KIND, _LIT_KIND, _PAREN, _TERM = range(7)


class ParseError(Exception):
    """Syntax error with position and the expected-token summary."""

    def __init__(self, source: str, pos: int, expected: set[str], filename: str = "<input>"):
        self.source = source
        self.pos = pos
        self.expected = sorted(expected)
        self.filename = filename
        self.line, self.column = line_col(source, pos)
        super().__init__(
            f"parse failure at {self.line}:{self.column}, expected: {', '.join(self.expected)}"
        )


def line_col(source: str, pos: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line = source.count("\n", 0, pos) + 1
    last_nl = source.rfind("\n", 0, pos)
    return line, pos - last_nl


@ast.node
class StyleWarning(ast.Value):
    message: str
    span: ast.Span


class _Fail(Exception):
    """Internal signal that the construct being parsed does not match."""


def _starts(c: str, chars: frozenset) -> bool:
    return c in chars or c.isdecimal()


class _Parser:
    def __init__(self, source: str, filename: str):
        # A NUL past the end lets every lookahead index the source unchecked.
        self.src, self.n, self.filename = source + "\0", len(source), filename
        self.pos = self.far_pos = self.depth = 0  # pos: end of the last consumed token
        self.gap = (-1, -1)  # the last gap skipped, (start, end)
        self.far_expected: set[str] = set()
        self.warnings: list[StyleWarning] = []
        self.kind = _LIT_KIND

    # --- machinery -----------------------------------------------------------

    def _ws(self, pos: int) -> int:
        """Start of the next token at or after pos."""
        if self.src[pos] not in _GAP_CHARS:
            return pos
        if self.gap[0] != pos:  # lookahead often skips the same gap again
            self.gap = (pos, _GAP(self.src, pos, self.n).end())
        return self.gap[1]

    def _peek(self) -> tuple[int, str]:
        p = self._ws(self.pos)
        return p, self.src[p]

    def _rec(self, pos: int, labels) -> None:
        if pos > self.far_pos:
            self.far_pos = pos
            self.far_expected = set(labels)
        elif pos == self.far_pos:
            self.far_expected.update(labels)

    def _fail(self, pos: int, *labels: str):
        self._rec(pos, labels)
        raise _Fail

    def _try(self, parse, *args):
        """parse(*args), or None, with the parser state restored, if it fails."""
        pos, depth, kind = self.pos, self.depth, self.kind
        try:
            return parse(*args)
        except _Fail:
            self.pos, self.depth, self.kind = pos, depth, kind
            return None

    def _tok(self, text: str, label: str | None = None) -> int:
        """Consume text as the next token; return where it starts."""
        p = self._ws(self.pos)
        if not self.src.startswith(text, p):
            self._fail(p, label or f'"{text}"')
        self.pos = p + len(text)
        return p

    def _eat(self, text: str) -> bool:
        p = self._ws(self.pos)
        found = self.src.startswith(text, p)
        if found:
            self.pos = p + len(text)
        return found

    def _open(self, bracket: str) -> None:
        """Consume an opening bracket; nesting deeper than MAX_DEPTH is an error."""
        p = self._tok(bracket)
        self.depth += 1
        if self.depth > MAX_DEPTH:
            expected = {f"at most {MAX_DEPTH} nested brackets"}
            raise ParseError(self.src[: self.n], p, expected, self.filename)

    def _close(self, bracket: str) -> None:
        self._tok(bracket)
        self.depth -= 1

    def _word_is(self, pos: int, keyword: str):
        """The word at pos if it is `keyword` in any case, else None."""
        m = _WORD(self.src, pos)
        return m if m is not None and m.group().lower() == keyword else None

    def _name_at(self, pos: int):
        """The identifier (a word that is not reserved) at pos, or None."""
        m = _WORD(self.src, pos)
        return m if m is not None and m.group() not in _NOT_IDENT else None

    def _try_kw(self, keyword: str) -> bool:
        """Consume `keyword` if it is the next token."""
        q = self._ws(self.pos)
        m = self._word_is(q, keyword)
        if m is None:
            self._rec(q, (keyword,))
            return False
        self.pos = m.end()
        return True

    def _kw(self, keyword: str) -> int:
        p = self._ws(self.pos)
        m = self._word_is(p, keyword.lower())
        if m is None:
            self._fail(p, keyword)
        self.pos = m.end()
        return p

    def _ident(self) -> str:
        saved = self.pos
        p = self._ws(saved)
        m = _WORD(self.src, p)
        if m is None:
            self._fail(p, "identifier")
        if m.group() in _NOT_IDENT:
            self._fail(saved, "identifier")
        self.pos = m.end()
        return m.group()

    def _list(self, parse) -> list:
        """parse() once, then again after each comma."""
        items = [parse()]
        while self._eat(","):
            items.append(parse())
        return items

    def _items(self, chars: frozenset, labels: tuple, parse) -> tuple:
        """parse(start) for each comma-separated item; a trailing comma is allowed."""
        items = []
        while True:
            r = self._ws(self.pos)
            if not _starts(self.src[r], chars):
                self._rec(r, labels)
                return tuple(items)
            items.append(parse(r))
            if not self._eat(","):
                return tuple(items)

    def _keyword_items(self, keyword: str, parse) -> list:
        """parse(start, keyword end) for each item that starts with `keyword`."""
        items = []
        while True:
            q = self._ws(self.pos)
            if not self._try_kw(keyword):
                return items
            items.append(parse(q, self.pos))

    # --- literals, types and primaries ---------------------------------------

    def _literal(self, p: int) -> ast.Expr:
        """Boolean, string, name, number, 0b binary, 0x hex or 0u unicord."""
        src, c = self.src, self.src[p]
        if c in _IDENT_START:
            word = _WORD(src, p).group()
            self.pos = p + len(word)
            if word.lower() in ("true", "false"):
                return ast.BoolLit(word.lower() == "true", span=ast.Span(p, self.pos))
            if word in _NOT_IDENT:
                self._fail(self.pos, "number")
            return ast.Ident(word, span=ast.Span(p, self.pos))
        if c == '"':
            end = _STRING(src, p, self.n).end()
            if self.src[end] != '"':
                self._fail(end, "closing quote")
            self.pos = end + 1
            return ast.StringLit(src[p + 1 : end], span=ast.Span(p, self.pos))
        if not _starts(c, _SIGNS):
            self._fail(p, *_LIT)
        head = self._ws(p + 1) if c in _SIGNS else p
        m = _NUMBER(src, head)
        if m is None:
            w = _WORD(src, head)
            if w is None or w.group() in _NOT_IDENT:
                self._fail(head if w is None else w.end(), "number")
            self.pos = w.end()
            return (ast.NegIdent if c == "-" else ast.Ident)(w.group(), span=ast.Span(p, self.pos))
        end = m.end()
        if self.src[end] in _IDENT_START:
            if head != p or m.group() != "0" or src[end] not in "bxu":
                self._fail(end, "number")
            radix = src[end]  # 0b binary, 0x hex, 0u unicord
            m = (_BINARY if radix == "b" else _HEX)(src, p + 2)
            self.pos = m.end()
            if radix == "u":
                return ast.UnicordLit(m.group(), span=ast.Span(p, self.pos))
            value = int(m.group(), 2 if radix == "b" else 16) if m.group() else 0
            if value >= ast.INT_BOUND:  # int() limits decimal digits only
                self._fail(p, "number")
            return ast.IntLit(value, span=ast.Span(p, self.pos))
        digits, frac, exp_sign, exp = m.groups()
        try:
            value = int(digits) if frac is None else float(f"{digits}.{frac}")
        except ValueError:  # an integer too long for int()
            self._fail(p, "number")
        if exp is not None:
            # The exponent scales the value as first read; a float whose repr
            # has an exponent of its own is rebuilt from its digits instead.
            text = str(value)
            if "e" in text or "n" in text:
                text = f"{digits}.{frac}"
            value = float(f"{text}e{exp_sign or '+'}{exp}")
        self.pos = end
        literal = ast.FloatLit if isinstance(value, float) else ast.IntLit
        return literal(-value if c == "-" else value, span=ast.Span(p, end))

    def _int_token(self, p: int) -> int:
        m = _INT(self.src, p)
        if m is None:
            self._fail(p, "digit")
        if self.src[m.end()] in _IDENT_START:
            self._fail(m.end(), "integer")
        try:
            value = int(m.group())
        except ValueError:  # an integer too long for int()
            self._fail(p, "integer")
        self.pos = m.end()
        return value

    def _type(self) -> ast.TypeAnnotation:
        p = self._ws(self.pos)
        m = _WORD(self.src, p)
        kind = _TYPES.get(m.group().lower()) if m is not None else None
        if kind is None:
            self._fail(p, *_TYPE)
        self.pos, inner = m.end(), None
        if kind == "vec":
            self._open("[")
            inner = self._type()
            self._close("]")
        return ast.TypeAnnotation(kind, inner, span=ast.Span(p, self.pos))

    def _operand(self, p: int) -> ast.Expr:
        """get, a call, a dotted chain, a literal or `( term )`; sets self.kind."""
        c = self.src[p]
        if c in _IDENT_START:
            return self._word_unit(p)
        if c == "#":
            node = self._chain(p, self._repeater_ident(p), required=True)
            self.kind = _VC
            return node
        if c == "(":
            node = self._paren_term(p)
            self.kind = _PAREN
            return node
        if not _starts(c, _LITERAL_CHARS):
            self._fail(p, *_OPERAND)
        self.kind = _LIT_KIND
        return self._literal(p)

    def _word_unit(self, p: int) -> ast.Expr:
        """A primary that starts with a word."""
        m = _WORD(self.src, p)
        word, end = m.group(), m.end()
        low = word.lower()
        if low == "get":
            self.pos = end
            name = self._try(self._ident)
            if name is not None:
                self.kind = _G
                return ast.GetExpr(name, span=ast.Span(p, self.pos))
        if word in _NOT_IDENT:
            self.kind = _LIT_KIND
            return self._literal(p)
        head = self._name_part(p, m)
        node = self._chain(p, head)
        if node is not None:
            self.kind = _VC
            return node
        if isinstance(head, ast.FnCall):
            self.kind = _FC
            return head
        self.kind = _WORD_KIND
        if low == "true" or low == "false":
            return ast.BoolLit(low == "true", span=head.span)
        return head

    def _repeater_ident(self, p: int) -> ast.RepeaterIdent:
        m = _WORD(self.src, p + 1)
        if m is None:
            self._fail(p + 1, "identifier")
        self.pos = m.end()
        return ast.RepeaterIdent("#" + m.group(), span=ast.Span(p, m.end()))

    def _chain(self, start: int, first, required: bool = False) -> ast.VariableCall | None:
        """`first . part . part ...`; None, recorded, if no part follows a dot
        (a failure if `required`)."""
        parts = [first]
        q, c = self._peek()
        if c != ".":
            self._rec(q, ('"."',))
        while c == ".":
            end = self.pos
            self.pos = q + 1
            part = self._callable_part()
            if part is None:
                self.pos = end
                break
            parts.append(part)
            q, c = self._peek()
        if len(parts) == 1:
            if required:
                raise _Fail
            return None
        return ast.VariableCall(tuple(parts), span=ast.Span(start, self.pos))

    def _callable_part(self):
        """A call, #name or name; None, recorded, if there is none."""
        p, c = self._peek()
        if c == "#":
            if _WORD(self.src, p + 1) is not None:
                return self._repeater_ident(p)
            self._rec(p + 1, ("identifier",))
        m = self._name_at(p)
        if m is None:
            self._rec(p, ("identifier", '"#"'))
            return None
        return self._name_part(p, m)

    def _name_part(self, p: int, m) -> ast.FnCall | ast.Ident:
        """A call if arguments follow the identifier `m` at p, else the name."""
        self.pos = m.end()
        q, c = self._peek()
        if c == "(":
            call = self._try(self._call, m.group(), p)
            if call is not None:
                return call
        else:
            self._rec(q, ('"("',))
        return ast.Ident(m.group(), span=ast.Span(p, m.end()))

    def _call(self, name: str, p: int) -> ast.FnCall:
        """`( args )` after the name that starts at p."""
        self._open("(")
        args = self._args()
        self._close(")")
        return ast.FnCall(name, args, span=ast.Span(p, self.pos))

    def _args(self) -> tuple[ast.Expr, ...]:
        r, c = self._peek()
        if c == ")":
            return ()
        if not _starts(c, _OPERAND_CHARS):
            self._fail(r, *_OPERAND, '")"')
        return tuple(self._list(lambda: self._comparable(self._ws(self.pos), arg=True)))

    def _paren_term(self, p: int) -> ast.TermExpr:
        """`( term )`: two or more operands and their operators in parentheses."""
        self.pos = p
        self._open("(")
        r = self._ws(self.pos)
        inner = self._term(r, self._operand(r))
        if self.kind != _TERM:
            raise _Fail
        self._close(")")
        return inner

    # --- expressions ---------------------------------------------------------

    def _term(self, start: int, first: ast.Expr) -> ast.Expr:
        """`first` extended into a TermExpr while arithmetic operators follow;
        self.kind becomes _TERM if it was."""
        src, operands, ops = self.src, [first], []
        q = self._ws(self.pos)
        while src[q] in _ARITH_CHARS:
            ops.append(src[q])
            operand = self._try(self._operand, self._ws(q + 1))
            if operand is None:
                break  # the grammar keeps the operator and ends the chain before it
            operands.append(operand)
            q = self._ws(self.pos)
        else:
            self._rec(q, ("arithmetic operator",))
        if not ops:
            return first
        self.kind = _TERM
        return ast.TermExpr(tuple(operands), tuple(ops), span=ast.Span(start, self.pos))

    def _comparison(self, start: int, lhs: ast.Expr) -> ast.CompExpr | None:
        """`lhs op comparable` if a comparison follows, else None."""
        q = self._ws(self.pos)
        op = self.src[q : q + 2]
        if op not in ("<=", ">=", "==", "!="):
            op = self.src[q]
            if op != "<" and op != ">":
                self._rec(q, ("comparison operator",))
                return None
        rhs = self._try(self._comparable, self._ws(q + len(op)))
        if rhs is None:
            return None
        return ast.CompExpr(lhs, op, rhs, span=ast.Span(start, self.pos))

    def _comparable(self, p: int, arg: bool = False) -> ast.Expr:
        """get, a term, a chain, a call or a literal; as a call argument (`arg`)
        a term, a call, a chain or a literal.  Sets self.kind."""
        node = self._operand(p)
        if self.kind == _G and not arg:
            return node
        node = self._term(p, node)
        if self.kind == _PAREN:
            raise _Fail
        if not arg:
            return node
        return self._literal(p) if self.kind == _G else self._cut_chain(node)

    def _cut_chain(self, node: ast.Expr) -> ast.Expr:
        """A chain that starts with a call, cut back to the call."""
        if self.kind == _VC and isinstance(node.parts[0], ast.FnCall):
            self.pos = node.parts[0].span.end
            return node.parts[0]
        return node

    def _expr(self, p: int, promote: bool = False, send: bool = False) -> ast.Expr:
        """An expression; with `promote` a promote value (no call, no rule call),
        with `send` ending after a call that `->` follows."""
        c = self.src[p]
        if c == "[":
            self.pos = p + 1
            items = self._items(_LITERAL_CHARS, _LIT, self._literal)
            self._tok("]")
            return ast.VectorLit(items, span=ast.Span(p, self.pos))
        if c == "(":
            return self._paren_expr(p)
        if not _starts(c, _OPERAND_CHARS):
            self._fail(p, *_EXPR)
        node = self._operand(p)
        kind = self.kind
        if send and kind == _FC and self.src.startswith("->", self._ws(self.pos)):
            return node
        if kind == _G:
            if not promote:
                return node
            comp = self._comparison(p, node)
            if comp is not None:
                return comp
            node = self._term(p, node)
            return node if self.kind == _TERM else self._literal(p)
        if kind == _WORD_KIND and not promote:
            q = self._ws(self.pos)
            if self.src[q] != "<":
                self._rec(q, ('"<"',))
            else:
                call = self._try(self._rule_call, self.src[p : node.span.end], p)
                if call is not None:
                    return call
        node = self._term(p, node)
        comp = self._comparison(p, node)
        if comp is not None:
            return comp
        if promote:
            return self._literal(p) if self.kind == _FC else node
        return self._cut_chain(node)

    def _paren_expr(self, p: int) -> ast.Expr:
        """A parenthesised term that an operator continues, or a tuple."""
        inner = self._try(self._paren_term, p)
        if inner is None:
            self.pos = p
            self._open("(")
            items = self._items(_EXPR_CHARS, _EXPR, self._expr)
            self._close(")")
            return ast.TupleLit(items, span=ast.Span(p, self.pos))
        end = self.pos
        self.kind = _PAREN
        node = self._term(p, inner)
        if self.kind == _TERM:
            comp = self._comparison(p, node)
            return node if comp is None else comp
        if isinstance(inner.operands[0], ast.GetExpr):
            raise _Fail  # as a tuple item, `get x` ends before the operator
        return ast.TupleLit((inner,), span=ast.Span(p, end))

    def _rule_call(self, name: str, p: int) -> ast.RuleCall:
        """`< #repeaters(index) > ( args )` after the name that starts at p."""
        self._tok("<")
        r = self._tok("#repeaters", "#repeaters")
        self._open("(")
        index = self._repeater_index(self._ws(self.pos))
        self._close(")")
        repeater = ast.RepeaterCall(index, span=ast.Span(r, self.pos))
        self._tok(">")
        self._open("(")
        args = self._args()
        self._close(")")
        return ast.RuleCall(name, repeater, args, span=ast.Span(p, self.pos))

    def _repeater_index(self, t: int) -> ast.Expr:
        """A term, a name or an integer."""
        c = self.src[t]
        if not _starts(c, _OPERAND_CHARS):
            self._fail(t, *_OPERAND, "digit")
        try:
            node = self._term(t, self._operand(t))
        except _Fail:
            if c.isdecimal():
                self._int_token(t)
            raise
        if self.kind == _TERM:
            return node
        self.pos = t
        name = self._try(self._ident)
        if name is not None:
            return ast.Ident(name, span=ast.Span(t, self.pos))
        return ast.IntLit(self._int_token(t), span=ast.Span(t, self.pos))

    def _condition(self, p: int) -> ast.Expr:
        """An if condition: a comparison, get, or a literal."""
        lhs = self._comparable(p)
        comp = self._comparison(p, lhs)
        if comp is not None:
            return comp
        return lhs if self.kind in (_G, _WORD_KIND, _LIT_KIND) else self._literal(p)

    # --- statements ----------------------------------------------------------

    def _stmts(self) -> tuple[ast.Stmt, ...]:
        """Statements up to the first token that cannot start one."""
        out = []
        while True:
            p, c = self._peek()
            if not _starts(c, _EXPR_CHARS):
                self._rec(p, _STMT)
                return tuple(out)
            out.append(self._stmt(p))

    def _stmt(self, p: int) -> ast.Stmt:
        """A statement; a capitalised keyword that starts none is read as a name."""
        if not _starts(self.src[p], _EXPR_CHARS):
            self._fail(p, *_STMT)
        m = _WORD(self.src, p)
        if m is not None and m.group().lower() in _STMT_WORDS:
            stmt = self._try(getattr(self, "_" + m.group().lower()), p, m.end())
            if stmt is not None:
                return stmt
            if m.group() in RESERVED:  # it fails as a literal too, at its end
                self._fail(m.end(), "number")
        value = self._expr(p, send=True)
        if isinstance(value, ast.FnCall):
            r = self._ws(self.pos)
            if self.src.startswith("->", r):
                self.pos = r + 2
                destination = self._expr(self._ws(self.pos))
                return ast.SendStmt(value, destination, span=ast.Span(p, self.pos))
            self._rec(r, ('"->"',))
        return ast.ExprStmt(value, span=ast.Span(p, self.pos))

    def _one_or_group(self, end: int, parse) -> list:
        """parse() once, or a parenthesised comma list of it, after the keyword
        that ends at `end`."""
        q = self._ws(end)
        self.pos = end
        if self.src[q] != "(":
            item = self._try(parse)
            if item is None:
                self._fail(q, '"("')
            return [item]
        self._rec(q, ("identifier",))
        self.pos = q + 1
        items = self._list(parse)
        self._tok(")")
        return items

    def _typed_name(self, optional: bool = False) -> ast.TypedName:
        """`name : type`; with `optional` the type may be left out."""
        start = self.pos = self._ws(self.pos)
        name = self._ident()
        if optional and not self._eat(":"):
            self._rec(self._ws(self.pos), ('":"',))
            return ast.TypedName(name, None, span=ast.Span(start, self.pos))
        if not optional:
            self._tok(":")
        return ast.TypedName(name, self._type(), span=ast.Span(start, self.pos))

    def _let(self, p: int, end: int) -> ast.LetStmt:
        targets = self._one_or_group(end, self._typed_name)
        self._tok("=")
        value = self._expr(self._ws(self.pos))
        return ast.LetStmt(tuple(targets), value, span=ast.Span(p, self.pos))

    def _block(self) -> tuple[ast.Stmt, ...]:
        self._open("{")
        body = self._stmts()
        self._close("}")
        return body

    def _if(self, p: int, end: int) -> ast.IfStmt:
        self.pos = end
        branches, orelse = [], None
        while orelse is None:
            self._tok("(")
            cond = self._condition(self._ws(self.pos))
            self._tok(")")
            branches.append((cond, self._block()))
            done = self.pos
            if not self._try_kw("else"):
                break
            else_end = self.pos
            if self._try_kw("if"):
                continue
            r = self._ws(self.pos)
            if self.src[r] != "{":
                # The statement ends before the else; its span keeps the word.
                self._rec(r, ('"{"',))
                self.pos = done
                return ast.IfStmt(tuple(branches), None, span=ast.Span(p, else_end))
            orelse = self._block()
        return ast.IfStmt(tuple(branches), orelse, span=ast.Span(p, self.pos))

    def _for(self, p: int, end: int) -> ast.ForStmt:
        names = self._one_or_group(end, self._ident)
        self._kw("in")
        r = self._ws(self.pos)
        generator = self._try(self._series, r) or self._expr(r)
        body = self._block()
        return ast.ForStmt(tuple(names), generator, body, span=ast.Span(p, self.pos))

    def _series(self, r: int) -> ast.Series:
        start = self._int_token(r)
        self._tok("..")
        return ast.Series(start, self._expr(self._ws(self.pos)), span=ast.Span(r, self.pos))

    def _match(self, p: int, end: int) -> ast.MatchStmt:
        self.pos = end
        subject = self._expr(self._ws(end))
        self._open("{")
        arms, otherwise = [], None
        while otherwise is None:
            a, c = self._peek()
            if not _starts(c, _LITERAL_CHARS):
                self._rec(a, _LIT + ("otherwise",))
                break
            pattern = self._literal(a)
            self._tok("=>")
            body = self._action()
            if self._eat(","):
                arms.append(ast.MatchArm(pattern, body, span=ast.Span(a, self.pos)))
                continue
            # Without its comma this is no arm; it can only be the otherwise clause.
            self._rec(self._ws(self.pos), ('","',))
            if self._word_is(a, "otherwise") is None:
                raise _Fail
            otherwise = body
        self._close("}")
        return ast.MatchStmt(subject, tuple(arms), otherwise, span=ast.Span(p, self.pos))

    def _action(self) -> tuple[ast.Stmt, ...]:
        """`{ stmt, stmt, ... }` of a match arm; the first statement may be left out."""
        self._open("{")
        stmts = []
        r, c = self._peek()
        if _starts(c, _EXPR_CHARS):
            stmts.append(self._stmt(r))
        else:
            self._rec(r, _STMT)
        while self._eat(","):
            stmts.append(self._stmt(self._ws(self.pos)))
        self._close("}")
        return tuple(stmts)

    def _promote(self, p: int, end: int) -> ast.PromoteStmt:
        self.pos = end
        values = self._list(lambda: self._expr(self._ws(self.pos), promote=True))
        return ast.PromoteStmt(tuple(values), span=ast.Span(p, self.pos))

    def _set(self, p: int, end: int) -> ast.SetStmt:
        self.pos = end
        name = self._ident()
        alias = self._ident() if self._try_kw("as") else None
        return ast.SetStmt(name, alias, span=ast.Span(p, self.pos))

    # --- rules and program ---------------------------------------------------

    def _cond(self) -> ast.CondExpr:
        start = self._kw("cond")
        self._tok("{")
        clauses = []
        while True:
            a, c = self._peek()
            if c == "@":
                self.pos = a + 1
                name = self._ident()
                self._tok(":")
                r = self.pos = self._ws(self.pos)
                call = self._call(self._ident(), r)
            else:
                name, call = None, self._callable_part()
                if call is None:
                    self._rec(a, ('"@"',))
                    break
                if not isinstance(call, ast.FnCall):
                    call = self._chain(a, call, required=True)
            clauses.append(ast.CondClause(name, call, span=ast.Span(a, self.pos)))
        self._tok("}")
        return ast.CondExpr(tuple(clauses), span=ast.Span(start, self.pos))

    def _returns(self) -> tuple[ast.ReturnType, ...]:
        p = self._ws(self.pos)
        if self.src[p] != "(":
            one = self._try(self._return_type)
            if one is None:
                self._fail(p, '"("')
            return (one,)
        self._rec(p, _TYPE)
        self.pos = p + 1
        types = self._list(self._return_type)
        self._tok(")")
        return tuple(types)

    def _return_type(self) -> ast.ReturnType:
        start = self._ws(self.pos)
        annotation = self._type()
        return ast.ReturnType(annotation, self._eat("?"), span=ast.Span(start, self.pos))

    def _rule(self, p: int, end: int) -> ast.RuleStmt:
        self.pos = end
        name = self._ident()
        self._tok("<")
        repeater = self._repeater_ident(self._tok("#")).name
        self._tok(">")
        self._tok("(")
        r = self._ws(self.pos)
        params = self._list(lambda: self._typed_name(optional=True)) if self._name_at(r) else []
        if not params:
            self._rec(r, ("identifier",))
        self._tok(")")
        returns: tuple[ast.ReturnType, ...] = ()
        a = self._ws(self.pos)
        if self._eat(":->") or self._eat("->"):
            if self.pos == a + 2:  # the plain arrow
                message = 'return annotation written with "->"; the canonical arrow is ":->"'
                self.warnings.append(StyleWarning(message, ast.Span(a, self.pos)))
            returns = self._returns()
        self._tok("{")
        lets = tuple(self._keyword_items("let", self._let))
        cond = self._cond()
        self._tok("=>")
        act_start = self._kw("act")
        act = ast.ActExpr(self._block(), span=ast.Span(act_start, self.pos))
        trailing = self._stmts()
        self._tok("}")
        params, span = tuple(params), ast.Span(p, self.pos)
        return ast.RuleStmt(name, repeater, params, returns, lets, cond, act, trailing, span=span)

    def _import(self, p: int, end: int) -> ast.ImportStmt:
        q = self._ws(end)
        self.pos = q + 1
        is_rule = self.src[q] == "(" and self._try_kw("rule") and self._eat(")")
        if not is_rule:
            self.pos = q
        path, names = [self._ident()], []
        while not names:
            before = self.pos
            if not self._eat("::"):
                break
            r = self.pos = self._ws(self.pos)
            if self.src[r] == "{":
                self.pos = r + 1
                names = self._list(self._ident)
                self._tok("}")
            elif self._name_at(r) is None:
                self._rec(r, ("identifier",))
                self.pos = before
                break
            else:
                path.append(self._ident())
        return ast.ImportStmt(tuple(path), tuple(names), is_rule, span=ast.Span(p, self.pos))

    def _ruleset(self, p: int, end: int) -> ast.RulesetStmt:
        self.pos = end
        name = self._ident()
        return ast.RulesetStmt(name, self._block(), span=ast.Span(p, self.pos))

    def program(self) -> ast.Program:
        start = self._ws(0)
        has_decl = self.src.startswith("#repeaters", start)
        if has_decl:
            self.pos = start + 10
            self._tok(":")
            self._kw("vec")
            self._tok("[")
            self._kw("Repeater")
            self._tok("]")
        else:
            self._rec(start, ("#repeaters declaration",))
        imports = tuple(self._keyword_items("import", self._import))
        rules = tuple(self._keyword_items("rule", self._rule))
        q = self._ws(self.pos)
        ruleset = self._ruleset(q, self.pos) if self._try_kw("ruleset") else None
        span = ast.Span(start, max(start, self.pos))
        return ast.Program(has_decl, imports, rules, ruleset, span=span)


def _run(source: str, entry, filename: str) -> tuple[object, list[StyleWarning]]:
    parser = _Parser(source, filename)
    try:
        node = entry(parser)
        end = parser._ws(parser.pos)
        if end != parser.n:
            parser._fail(end, "end of input")
    except _Fail:
        pos = max(parser.far_pos, parser.pos)
        raise ParseError(source, pos, parser.far_expected or {"valid syntax"}, filename) from None
    return node, parser.warnings


def parse(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a complete RuLa program; raises ParseError on invalid syntax."""
    program, _ = parse_with_warnings(source, filename)
    return program


def parse_with_warnings(
    source: str, filename: str = "<input>"
) -> tuple[ast.Program, list[StyleWarning]]:
    program, warnings = _run(source, _Parser.program, filename)
    return program, warnings  # type: ignore[return-value]


def parse_statements(source: str, filename: str = "<input>") -> tuple[ast.Stmt, ...]:
    """Parse a statement sequence, for fragment-level checks."""
    stmts, _ = _run(source, _Parser._stmts, filename)
    return stmts  # type: ignore[return-value]


def parse_expression(source: str, filename: str = "<input>") -> ast.Expr:
    """Parse a single expression, for fragment-level checks."""
    node, _ = _run(source, lambda p: p._expr(p._ws(0)), filename)
    return node  # type: ignore[return-value]
