"""Network description formats: an s-expression dialect and a BIF subset.

Both parsers are bit-exact: probabilities are read as decimal text into
binary floats and never renormalized, so parse -> emit -> parse is a fixed
point.  Rows whose printed sum strays from 1 by more than 1e-12 are rejected.
Both nest their tokens with one bracket reader, and every rejection carries a
line/column position.  `load_document` reads
either, telling them apart by the text, never by the file name.
"""
from __future__ import annotations

import bisect
import itertools
import math
import re
from pathlib import Path
from typing import NamedTuple

from .model import BayesianNetwork, NodeSpec, ROW_SUM_TOL, _toposort


class NetworkFormatError(ValueError):
    """Malformed network description, with the source position of the fault."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str, punct: str) -> list[_Token]:
    """Split text into tokens with 1-based line and column: each character of
    punct is a token of its own, and so is each maximal run of other non-space
    characters.  Only '\\n' starts a line; in a str pattern `\\s` matches
    exactly the characters str.isspace accepts."""
    chars = re.escape(punct)
    # Line k (1-based) starts just after breaks[k - 1]: -1, then each newline.
    breaks = [-1] + [m.start() for m in re.finditer("\n", text)]
    tokens = []
    for m in re.finditer(f"[{chars}]|[^\\s{chars}]+", text):
        line = bisect.bisect(breaks, m.start())
        tokens.append(_Token(m.group(), line, m.start() - breaks[line - 1]))
    return tokens


# ---------------------------------------------------------------------------
# Bracket reader, shared by both dialects
# ---------------------------------------------------------------------------

# Each dialect's bracket pairs, opening -> closing.
_SEXPR_BRACKETS = {"(": ")"}
_BIF_BRACKETS = {"{": "}", "(": ")", "[": "]"}


class _Form(list):
    """A bracketed form: the items between a pair of brackets, with the
    opening bracket's text and position."""

    __slots__ = ("text", "line", "col")

    def __init__(self, opening: _Token):
        super().__init__()
        self.text, self.line, self.col = opening.text, opening.line, opening.col


def _parse_forms(tokens: list[_Token], brackets: dict[str, str]) -> list:
    """Nest tokens into forms at each pair of `brackets` (opening -> closing),
    on an explicit stack; returns the top-level items."""
    closing = set(brackets.values())
    stack = [_Form(_Token("", 1, 1))]
    for tok in tokens:
        if tok.text in brackets:
            form = _Form(tok)
            stack[-1].append(form)
            stack.append(form)
        elif tok.text not in closing:
            stack[-1].append(tok)
        elif len(stack) == 1:
            raise NetworkFormatError(f"{_unbalanced(tok)}: unexpected {tok.text!r}", *_pos(tok))
        elif brackets[stack[-1].text] == tok.text:
            stack.pop()
        else:
            break  # a closing bracket of another kind: the open form is never closed
    if len(stack) > 1:
        form = stack[-1]
        message = f"{_unbalanced(form)}: {form.text!r} is never closed"
        raise NetworkFormatError(message, *_pos(form))
    return stack[0]


def _unbalanced(bracket) -> str:
    return "unbalanced parentheses" if bracket.text in "()" else "unbalanced brackets"


def _pos(item) -> tuple[int, int]:
    """The position of a token, or of a form's opening bracket."""
    return item.line, item.col


def _number(tok) -> float:
    if isinstance(tok, list):
        raise NetworkFormatError("expected a number, found a list", *_pos(tok))
    try:
        return float(tok.text)
    except ValueError:
        raise NetworkFormatError(f"expected a number, found {tok.text!r}", *_pos(tok))


def _atom(tok, what: str) -> str:
    if isinstance(tok, list):
        raise NetworkFormatError(f"expected {what}, found a list", *_pos(tok))
    return tok.text


def _words(form: _Form, what: str, separators: str = ",") -> list[str]:
    """The words of a bracketed list, without its separators."""
    return [_atom(t, what) for t in form if t.text not in separators]


def _state_count(form: _Form) -> int:
    """The ASCII decimal integer written between a pair of brackets."""
    count = " ".join(t.text for t in form)
    if count.isascii() and count.isdigit():
        return int(count)
    at = form[0] if form else form
    raise NetworkFormatError(f"expected a state count, found {count!r}", *_pos(at))


def _check_row(row: tuple[float, ...], k: int, name: str, line: int, col: int) -> None:
    if len(row) != k:
        raise NetworkFormatError(
            f"CPT row for {name} has {len(row)} entries, expected {k}", line, col
        )
    if any(not (0.0 <= p <= 1.0) for p in row):
        raise NetworkFormatError(f"CPT row for {name} has entries outside [0, 1]", line, col)
    if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
        raise NetworkFormatError(f"CPT row for {name} does not sum to 1", line, col)


# ---------------------------------------------------------------------------
# S-expression dialect
# ---------------------------------------------------------------------------

def parse_sexpr(text: str) -> BayesianNetwork:
    """Parse the parenthesized network dialect.

    A document is a list of clauses, optionally wrapped in a (define NAME '(...))
    form.  `(variable NAME (type discrete (K) (s1 ... sK)))` declares a node and
    `(probability (CHILD P1 ... Pm) ROWS)` its table, where ROWS is either a
    single `(table p1 ... pK)` for root nodes or one `((ps1 ... psm) p1 ... pK)`
    row per parent state combination.
    """
    tokens = [tok for tok in _tokenize(text, "()'") if tok.text != "'"]
    forms = _parse_forms(tokens, _SEXPR_BRACKETS)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise NetworkFormatError("expected one top-level list of clauses", 1, 1)
    top = forms[0]
    if top and top[0].text == "define":
        if len(top) < 3:
            raise NetworkFormatError("define form needs a name and a body", *_pos(top))
        clauses = top[-1]
        if not isinstance(clauses, list):
            raise NetworkFormatError("define body must be a list of clauses", *_pos(top))
    else:
        clauses = top

    states: dict[str, tuple[str, ...]] = {}
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]] = {}

    for clause in clauses:
        if not isinstance(clause, list) or not clause:
            raise NetworkFormatError("expected a clause list", *_pos(clause))
        head = _atom(clause[0], "a clause head")
        line, col = clause[0].line, clause[0].col
        if head == "variable":
            if len(clause) != 3:
                raise NetworkFormatError("variable clause needs a name and a type", line, col)
            name = _atom(clause[1], "a variable name")
            typ = clause[2]
            if (
                not isinstance(typ, list)
                or len(typ) != 4
                or _atom(typ[0], "type") != "type"
                or _atom(typ[1], "discrete") != "discrete"
                or not isinstance(typ[2], list)
                or not isinstance(typ[3], list)
            ):
                raise NetworkFormatError(
                    f"variable {name}: expected (type discrete (K) (s1 ... sK))", line, col
                )
            k = _state_count(typ[2])
            labels = tuple(_atom(t, "a state label") for t in typ[3])
            if len(labels) != k:
                raise NetworkFormatError(
                    f"variable {name}: declared {k} states but listed {len(labels)}", line, col
                )
            if name in states:
                raise NetworkFormatError(f"variable {name} declared twice", line, col)
            states[name] = labels
        elif head == "probability":
            if len(clause) < 3 or not isinstance(clause[1], list) or not clause[1]:
                raise NetworkFormatError(
                    "probability clause needs (CHILD parents...) and rows", line, col
                )
            family = [_atom(t, "a node name") for t in clause[1]]
            child, parents = family[0], tuple(family[1:])
            if child in tables:
                raise NetworkFormatError(f"duplicate probability clause for {child}", line, col)
            rows: dict[tuple[str, ...], tuple[float, ...]] = {}
            body = clause[2:]
            if (
                not parents
                and len(body) == 1
                and isinstance(body[0], list)
                and body[0]
                and body[0][0].text == "table"
            ):
                rows[()] = tuple(_number(t) for t in body[0][1:])
            else:
                for row_form in body:
                    if (
                        not isinstance(row_form, list)
                        or not row_form
                        or not isinstance(row_form[0], list)
                    ):
                        raise NetworkFormatError(
                            f"probability {child}: expected ((parent states) p1 ... pK) rows",
                            *_pos(row_form),
                        )
                    key = tuple(_atom(t, "a parent state") for t in row_form[0])
                    if len(key) != len(parents):
                        raise NetworkFormatError(
                            f"probability {child}: row key {key} does not match "
                            f"{len(parents)} parents",
                            *_pos(row_form),
                        )
                    if key in rows:
                        raise NetworkFormatError(
                            f"probability {child}: duplicate row for {key}", *_pos(row_form)
                        )
                    rows[key] = tuple(_number(t) for t in row_form[1:])
            tables[child] = (parents, rows, (line, col))
        else:
            raise NetworkFormatError(f"unknown clause head {head!r}", line, col)

    return _assemble(states, tables)


def _assemble(
    states: dict[str, tuple[str, ...]],
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]],
) -> BayesianNetwork:
    nodes: list[NodeSpec] = []
    for name in states:
        if name not in tables:
            raise NetworkFormatError(f"no probability clause for variable {name}", 1, 1)
        parents, rows, (line, col) = tables[name]
        for p in parents:
            if p not in states:
                raise NetworkFormatError(
                    f"probability {name}: reference to undeclared node {p}", line, col
                )
        k = len(states[name])
        cpt: dict[tuple[int, ...], tuple[float, ...]] = {}
        expected = list(itertools.product(*(states[p] for p in parents)))
        for combo in expected:
            if combo not in rows:
                raise NetworkFormatError(
                    f"missing CPT row for {_key_text(combo)}", line, col
                )
        known = set(expected)
        for combo, row in rows.items():
            if combo not in known:
                bad = [s for p, s in zip(parents, combo) if s not in states[p]]
                detail = f"unknown parent state {bad[0]!r}" if bad else "unexpected row"
                raise NetworkFormatError(
                    f"probability {name}: {detail} in row {_key_text(combo)}", line, col
                )
            _check_row(row, k, name, line, col)
            cpt[tuple(states[p].index(s) for p, s in zip(parents, combo))] = row
        nodes.append(NodeSpec(name, states[name], parents, cpt))
    for name in tables:
        if name not in states:
            line, col = tables[name][2]
            raise NetworkFormatError(
                f"probability clause for undeclared node {name}", line, col
            )
    placed, cyclic = _toposort(nodes)
    return BayesianNetwork(tuple(placed + cyclic), (), "one-hot")


def _key_text(combo: tuple[str, ...]) -> str:
    return "(" + " ".join(combo) + ")"


def _fmt(p: float) -> str:
    return f"{p:.17g}"


def _labelled_rows(bn: BayesianNetwork, node: NodeSpec) -> list:
    """A node's CPT rows as (parent state labels, probabilities), sorted by
    the labels: the row order both emitters write."""
    rows = [
        (tuple(bn.node(p).states[s] for p, s in zip(node.parents, combo)), row)
        for combo, row in node.cpt.items()
    ]
    return sorted(rows, key=lambda item: item[0])


def emit_sexpr(bn: BayesianNetwork) -> str:
    """Canonical s-expression form: topological node order, rows sorted by
    parent state labels, probabilities at 17 significant digits."""
    parts = []
    for node in bn.nodes:
        parts.append(
            f"(variable {node.name} (type discrete ({node.cardinality}) "
            f"({' '.join(node.states)})))"
        )
    for node in bn.nodes:
        if not node.parents:
            row = " ".join(_fmt(p) for p in node.cpt[()])
            parts.append(f"(probability ({node.name}) (table {row}))")
            continue
        body = "\n".join(
            f"      (({' '.join(labels)}) {' '.join(_fmt(p) for p in row)})"
            for labels, row in _labelled_rows(bn, node)
        )
        parts.append(
            f"(probability ({node.name} {' '.join(node.parents)})\n{body})"
        )
    joined = "\n    ".join(parts)
    return f"(define NETWORK\n  '({joined}))\n"


# ---------------------------------------------------------------------------
# BIF subset
# ---------------------------------------------------------------------------

def parse_bif_subset(text: str) -> BayesianNetwork:
    """Parse the discrete BIF dialect used by the common benchmark files.

    A document is a sequence of `KEYWORD NAME? { block }` units whose
    statements end at ';'.  Supports `network`, `variable` with `type
    discrete`, and `probability` blocks with either a `table` row or one
    parenthesized row per parent state combination.  `property` statements
    are ignored; continuous variables are rejected.
    """
    items = _parse_forms(_tokenize(text, "{}()[]|,;"), _BIF_BRACKETS)
    states: dict[str, tuple[str, ...]] = {}
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]] = {}

    i = 0
    while i < len(items):
        head = items[i]
        if head.text not in ("network", "variable", "probability"):
            raise NetworkFormatError(f"unknown block {head.text!r}", *_pos(head))
        end = next((j for j in range(i + 1, len(items)) if items[j].text == "{"), None)
        if end is None:
            raise NetworkFormatError(f"expected a '{{' block after {head.text!r}", *_pos(head))
        args, block, i = items[i + 1:end], items[end], end + 1
        if head.text == "variable":
            if len(args) != 1 or isinstance(args[0], list):
                raise NetworkFormatError("expected 'variable NAME {'", *_pos(head))
            name_tok = args[0]
            name = name_tok.text
            labels: tuple[str, ...] | None = None
            for stmt in _statements(block, "variable block"):
                if stmt[0].text == "type":
                    labels = _bif_states(stmt, name_tok)
                elif stmt[0].text != "property":
                    raise NetworkFormatError(
                        f"unexpected {stmt[0].text!r} in variable block", *_pos(stmt[0])
                    )
            if labels is None:
                raise NetworkFormatError(f"variable {name}: missing type declaration",
                                         *_pos(name_tok))
            if name in states:
                raise NetworkFormatError(f"variable {name} declared twice", *_pos(name_tok))
            states[name] = labels
        elif head.text == "probability":
            if len(args) != 1 or args[0].text != "(":
                raise NetworkFormatError("expected 'probability ( CHILD | PARENTS ) {'",
                                         *_pos(head))
            family = args[0]
            names = _words(family, "a node name", ",|")
            if not names:
                raise NetworkFormatError("empty probability family", *_pos(family))
            child, parents = names[0], tuple(names[1:])
            if parents and all(t.text != "|" for t in family):
                raise NetworkFormatError(
                    f"probability ({child} ...): parents must follow '|'", *_pos(family)
                )
            rows: dict[tuple[str, ...], tuple[float, ...]] = {}
            for stmt in _statements(block, "probability block"):
                first = stmt[0]
                if first.text == "table":
                    rows[()] = _bif_numbers(stmt[1:])
                elif first.text == "(":
                    key = tuple(_words(first, "a parent state"))
                    if key in rows:
                        raise NetworkFormatError(
                            f"probability {child}: duplicate row for {key}", *_pos(first)
                        )
                    rows[key] = _bif_numbers(stmt[1:])
                elif first.text != "property":
                    raise NetworkFormatError(
                        f"unexpected {first.text!r} in probability block", *_pos(first)
                    )
            if child in tables:
                raise NetworkFormatError(f"duplicate probability block for {child}", *_pos(family))
            tables[child] = (parents, rows, _pos(family))

    return _assemble(states, tables)


def _statements(block: _Form, where: str) -> list[list]:
    """A block's items split into statements at ';' tokens."""
    statements: list[list] = [[]]
    for item in block:
        if item.text != ";":
            statements[-1].append(item)
        elif statements[-1]:
            statements.append([])
        else:
            raise NetworkFormatError(f"unexpected ';' in {where}", *_pos(item))
    if statements[-1]:
        raise NetworkFormatError("expected ';' ending this statement", *_pos(statements[-1][0]))
    return statements[:-1]


def _bif_states(stmt: list, name: _Token) -> tuple[str, ...]:
    """The state labels of a `type discrete [ K ] { s1, ..., sK }` statement."""
    kind = stmt[1] if len(stmt) > 1 else stmt[0]
    if kind.text != "discrete":
        raise NetworkFormatError("unsupported: continuous", *_pos(kind))
    if len(stmt) < 4 or stmt[2].text != "[" or stmt[3].text != "{":
        raise NetworkFormatError(
            f"variable {name.text}: expected type discrete [ K ] {{ s1, ..., sK }}", *_pos(stmt[0])
        )
    if len(stmt) > 4:
        raise NetworkFormatError(f"expected ';' before {stmt[4].text!r}", *_pos(stmt[4]))
    k = _state_count(stmt[2])
    labels = tuple(_words(stmt[3], "a state label"))
    if len(labels) != k:
        raise NetworkFormatError(
            f"variable {name.text}: declared {k} states but listed {len(labels)}", *_pos(name)
        )
    return labels


def _bif_numbers(items: list) -> tuple[float, ...]:
    """The probabilities of a row, separated by ','; a bracket among them
    means the row's ';' is missing."""
    for item in items:
        if isinstance(item, list):
            raise NetworkFormatError(f"expected ';' before {item.text!r}", *_pos(item))
    return tuple(_number(t) for t in items if t.text != ",")


def emit_bif(bn: BayesianNetwork) -> str:
    """Canonical BIF text for a network (the same subset parse_bif_subset reads)."""
    out = ["network unknown {", "}"]
    for node in bn.nodes:
        out.append(f"variable {node.name} {{")
        out.append(
            f"  type discrete [ {node.cardinality} ] {{ {', '.join(node.states)} }};"
        )
        out.append("}")
    for node in bn.nodes:
        if not node.parents:
            out.append(f"probability ( {node.name} ) {{")
            out.append(f"  table {', '.join(_fmt(p) for p in node.cpt[()])};")
            out.append("}")
            continue
        out.append(f"probability ( {node.name} | {', '.join(node.parents)} ) {{")
        for labels, row in _labelled_rows(bn, node):
            out.append(
                f"  ({', '.join(labels)}) {', '.join(_fmt(p) for p in row)};"
            )
        out.append("}")
    return "\n".join(out) + "\n"


def load_document(path: str | Path) -> BayesianNetwork:
    """Read a network file whatever its name: an s-expression document if its
    first non-space character is `(` (or a transparent quote), else BIF."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip()[:1] in ("(", "'"):
        return parse_sexpr(text)
    return parse_bif_subset(text)
