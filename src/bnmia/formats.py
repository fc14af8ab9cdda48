"""Network description formats: an s-expression dialect and a BIF subset.

Both parsers are bit-exact: probabilities are read as decimal text into
binary floats and never renormalized, so parse -> emit -> parse is a fixed
point.  Rows whose printed sum strays from 1 by more than 1e-12 are rejected.
Every rejection carries a line/column position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .model import BayesianNetwork, NodeSpec, ROW_SUM_TOL


class NetworkFormatError(ValueError):
    """Malformed network description, with the source position of the fault."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class NetworkDocument:
    """A parsed network description together with its source text."""

    source_text: str
    network: BayesianNetwork


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str, punct: str) -> list[_Token]:
    """Split text into tokens with 1-based line and column: each character of
    punct is a token of its own, and so is each maximal run of other non-space
    characters."""
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in punct:
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < len(text) and not text[i].isspace() and text[i] not in punct:
            i += 1
            col += 1
        tokens.append(_Token(text[start:i], line, start_col))
    return tokens


# ---------------------------------------------------------------------------
# S-expression dialect
# ---------------------------------------------------------------------------

def _parse_forms(tokens: list[_Token]) -> list:
    """Nested lists of tokens; quote marks are transparent."""
    pos = 0

    def parse_one():
        nonlocal pos
        if pos >= len(tokens):
            raise NetworkFormatError("unexpected end of input", *_tail_pos(tokens))
        tok = tokens[pos]
        if tok.text == "'":
            pos += 1
            return parse_one()
        if tok.text == "(":
            pos += 1
            items = []
            while True:
                if pos >= len(tokens):
                    raise NetworkFormatError("unbalanced parentheses", tok.line, tok.col)
                if tokens[pos].text == ")":
                    pos += 1
                    return items
                items.append(parse_one())
        if tok.text == ")":
            raise NetworkFormatError("unbalanced parentheses", tok.line, tok.col)
        pos += 1
        return tok

    forms = []
    while pos < len(tokens):
        forms.append(parse_one())
    return forms


def _tail_pos(tokens: list[_Token]) -> tuple[int, int]:
    if tokens:
        return tokens[-1].line, tokens[-1].col
    return 1, 1


def _form_pos(form) -> tuple[int, int]:
    while isinstance(form, list):
        if not form:
            return 1, 1
        form = form[0]
    return form.line, form.col


def _number(tok) -> float:
    if isinstance(tok, list):
        raise NetworkFormatError("expected a number, found a list", *_form_pos(tok))
    try:
        return float(tok.text)
    except ValueError:
        raise NetworkFormatError(f"expected a number, found {tok.text!r}", tok.line, tok.col)


def _atom(tok, what: str) -> str:
    if isinstance(tok, list):
        raise NetworkFormatError(f"expected {what}, found a list", *_form_pos(tok))
    return tok.text


def _check_row(row: tuple[float, ...], k: int, name: str, line: int, col: int) -> None:
    if len(row) != k:
        raise NetworkFormatError(
            f"CPT row for {name} has {len(row)} entries, expected {k}", line, col
        )
    if any(not (0.0 <= p <= 1.0) for p in row):
        raise NetworkFormatError(f"CPT row for {name} has entries outside [0, 1]", line, col)
    if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
        raise NetworkFormatError(f"CPT row for {name} does not sum to 1", line, col)


def _toposort(nodes: list[NodeSpec]) -> tuple[NodeSpec, ...]:
    """Stable topological order (declaration order among ready nodes)."""
    by_name = {n.name: n for n in nodes}
    placed: set[str] = set()
    ordered: list[NodeSpec] = []
    pending = list(nodes)
    while pending:
        progressed = False
        remaining = []
        for node in pending:
            if all(p in placed or p not in by_name for p in node.parents):
                ordered.append(node)
                placed.add(node.name)
                progressed = True
            else:
                remaining.append(node)
        if not progressed:
            # Cycle or dangling reference; keep declaration order and let
            # validate() report the real fault.
            ordered.extend(remaining)
            break
        pending = remaining
    return tuple(ordered)


def parse_sexpr(text: str) -> BayesianNetwork:
    """Parse the parenthesized network dialect.

    A document is a list of clauses, optionally wrapped in a (define NAME '(...))
    form.  `(variable NAME (type discrete (K) (s1 ... sK)))` declares a node and
    `(probability (CHILD P1 ... Pm) ROWS)` its table, where ROWS is either a
    single `(table p1 ... pK)` for root nodes or one `((ps1 ... psm) p1 ... pK)`
    row per parent state combination.
    """
    forms = _parse_forms(_tokenize(text, "()'"))
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise NetworkFormatError("expected one top-level list of clauses", *_tail_pos([]))
    top = forms[0]
    if top and not isinstance(top[0], list) and top[0].text == "define":
        if len(top) < 3:
            raise NetworkFormatError("define form needs a name and a body", *_form_pos(top))
        clauses = top[-1]
        if not isinstance(clauses, list):
            raise NetworkFormatError("define body must be a list of clauses", *_form_pos(top))
    else:
        clauses = top

    states: dict[str, tuple[str, ...]] = {}
    decl_order: list[str] = []
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]] = {}

    for clause in clauses:
        if not isinstance(clause, list) or not clause:
            raise NetworkFormatError("expected a clause list", *_form_pos(clause))
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
                or len(typ[2]) != 1
                or not isinstance(typ[3], list)
            ):
                raise NetworkFormatError(
                    f"variable {name}: expected (type discrete (K) (s1 ... sK))", line, col
                )
            k = int(_number(typ[2][0]))
            labels = tuple(_atom(t, "a state label") for t in typ[3])
            if len(labels) != k:
                raise NetworkFormatError(
                    f"variable {name}: declared {k} states but listed {len(labels)}", line, col
                )
            if name in states:
                raise NetworkFormatError(f"variable {name} declared twice", line, col)
            states[name] = labels
            decl_order.append(name)
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
                and not isinstance(body[0][0], list)
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
                            *_form_pos(row_form),
                        )
                    key = tuple(_atom(t, "a parent state") for t in row_form[0])
                    if len(key) != len(parents):
                        raise NetworkFormatError(
                            f"probability {child}: row key {key} does not match "
                            f"{len(parents)} parents",
                            *_form_pos(row_form),
                        )
                    if key in rows:
                        raise NetworkFormatError(
                            f"probability {child}: duplicate row for {key}", *_form_pos(row_form)
                        )
                    rows[key] = tuple(_number(t) for t in row_form[1:])
            tables[child] = (parents, rows, (line, col))
        else:
            raise NetworkFormatError(f"unknown clause head {head!r}", line, col)

    return _assemble(states, decl_order, tables)


def _assemble(
    states: dict[str, tuple[str, ...]],
    decl_order: list[str],
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]],
) -> BayesianNetwork:
    import itertools

    nodes: list[NodeSpec] = []
    for name in decl_order:
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
        for combo, row in rows.items():
            if combo not in set(expected):
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
    return BayesianNetwork(_toposort(nodes), (), "one-hot")


def _key_text(combo: tuple[str, ...]) -> str:
    return "(" + " ".join(combo) + ")"


def _fmt(p: float) -> str:
    return f"{p:.17g}"


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
        rows = []
        for combo in node.cpt:
            labels = tuple(bn.node(p).states[s] for p, s in zip(node.parents, combo))
            rows.append((labels, node.cpt[combo]))
        rows.sort(key=lambda item: item[0])
        body = "\n".join(
            f"      (({' '.join(labels)}) {' '.join(_fmt(p) for p in row)})"
            for labels, row in rows
        )
        parts.append(
            f"(probability ({node.name} {' '.join(node.parents)})\n{body})"
        )
    joined = "\n    ".join(parts)
    return f"(define NETWORK\n  '({joined}))\n"


# ---------------------------------------------------------------------------
# BIF subset
# ---------------------------------------------------------------------------

class _BifReader:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str = "a token") -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise NetworkFormatError(f"unexpected end of input, expected {what}",
                                     last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise NetworkFormatError(
                f"expected {text!r}, found {tok.text!r}", tok.line, tok.col
            )
        return tok

    def skip_property(self) -> None:
        # `property` runs to the closing semicolon.
        while True:
            tok = self.next("';' ending a property")
            if tok.text == ";":
                return


def parse_bif_subset(text: str) -> BayesianNetwork:
    """Parse the discrete BIF dialect used by the common benchmark files.

    Supports `network`, `variable` with `type discrete`, and `probability`
    blocks with either a `table` row or one parenthesized row per parent
    state combination.  `property` lines are ignored; continuous variables
    are rejected.
    """
    reader = _BifReader(_tokenize(text, "{}()[]|,;"))
    states: dict[str, tuple[str, ...]] = {}
    decl_order: list[str] = []
    tables: dict[str, tuple[tuple[str, ...], dict, tuple[int, int]]] = {}

    while True:
        tok = reader.peek()
        if tok is None:
            break
        if tok.text == "network":
            reader.next()
            while reader.peek() is not None and reader.peek().text != "{":
                reader.next()
            reader.expect("{")
            depth = 1
            while depth:
                t = reader.next("'}'")
                depth += t.text == "{"
                depth -= t.text == "}"
        elif tok.text == "variable":
            reader.next()
            name_tok = reader.next("a variable name")
            name = name_tok.text
            reader.expect("{")
            labels: tuple[str, ...] | None = None
            while True:
                t = reader.next("'}' ending the variable block")
                if t.text == "}":
                    break
                if t.text == "property":
                    reader.skip_property()
                    continue
                if t.text != "type":
                    raise NetworkFormatError(
                        f"unexpected {t.text!r} in variable block", t.line, t.col
                    )
                kind = reader.next("a variable type")
                if kind.text != "discrete":
                    raise NetworkFormatError("unsupported: continuous", kind.line, kind.col)
                reader.expect("[")
                k_tok = reader.next("a state count")
                try:
                    k = int(k_tok.text)
                except ValueError:
                    raise NetworkFormatError(
                        f"expected a state count, found {k_tok.text!r}", k_tok.line, k_tok.col
                    )
                reader.expect("]")
                reader.expect("{")
                names: list[str] = []
                while True:
                    t2 = reader.next("a state label")
                    if t2.text == "}":
                        break
                    if t2.text == ",":
                        continue
                    names.append(t2.text)
                reader.expect(";")
                if len(names) != k:
                    raise NetworkFormatError(
                        f"variable {name}: declared {k} states but listed {len(names)}",
                        name_tok.line, name_tok.col,
                    )
                labels = tuple(names)
            if labels is None:
                raise NetworkFormatError(
                    f"variable {name}: missing type declaration", name_tok.line, name_tok.col
                )
            if name in states:
                raise NetworkFormatError(
                    f"variable {name} declared twice", name_tok.line, name_tok.col
                )
            states[name] = labels
            decl_order.append(name)
        elif tok.text == "probability":
            reader.next()
            open_tok = reader.expect("(")
            family: list[str] = []
            saw_bar = False
            while True:
                t = reader.next("')' ending the family")
                if t.text == ")":
                    break
                if t.text in {",", "|"}:
                    saw_bar = saw_bar or t.text == "|"
                    continue
                family.append(t.text)
            if not family:
                raise NetworkFormatError("empty probability family", open_tok.line, open_tok.col)
            child, parents = family[0], tuple(family[1:])
            if parents and not saw_bar:
                raise NetworkFormatError(
                    f"probability ({child} ...): parents must follow '|'",
                    open_tok.line, open_tok.col,
                )
            reader.expect("{")
            rows: dict[tuple[str, ...], tuple[float, ...]] = {}
            while True:
                t = reader.peek()
                if t is None:
                    raise NetworkFormatError(
                        "unexpected end of input in probability block",
                        open_tok.line, open_tok.col,
                    )
                if t.text == "}":
                    reader.next()
                    break
                if t.text == "property":
                    reader.next()
                    reader.skip_property()
                    continue
                if t.text == "table":
                    reader.next()
                    rows[()] = tuple(_read_bif_numbers(reader))
                    continue
                if t.text == "(":
                    reader.next()
                    key: list[str] = []
                    while True:
                        t2 = reader.next("')' ending a row key")
                        if t2.text == ")":
                            break
                        if t2.text == ",":
                            continue
                        key.append(t2.text)
                    if tuple(key) in rows:
                        raise NetworkFormatError(
                            f"probability {child}: duplicate row for {tuple(key)}",
                            t.line, t.col,
                        )
                    rows[tuple(key)] = tuple(_read_bif_numbers(reader))
                    continue
                raise NetworkFormatError(
                    f"unexpected {t.text!r} in probability block", t.line, t.col
                )
            if child in tables:
                raise NetworkFormatError(
                    f"duplicate probability block for {child}", open_tok.line, open_tok.col
                )
            tables[child] = (parents, rows, (open_tok.line, open_tok.col))
        else:
            raise NetworkFormatError(f"unknown block {tok.text!r}", tok.line, tok.col)

    return _assemble(states, decl_order, tables)


def _read_bif_numbers(reader: _BifReader) -> list[float]:
    values: list[float] = []
    while True:
        tok = reader.next("a probability or ';'")
        if tok.text == ";":
            return values
        if tok.text == ",":
            continue
        try:
            values.append(float(tok.text))
        except ValueError:
            raise NetworkFormatError(
                f"expected a number, found {tok.text!r}", tok.line, tok.col
            )


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
        rows = []
        for combo, row in node.cpt.items():
            labels = tuple(bn.node(p).states[s] for p, s in zip(node.parents, combo))
            rows.append((labels, row))
        rows.sort(key=lambda item: item[0])
        for labels, row in rows:
            out.append(
                f"  ({', '.join(labels)}) {', '.join(_fmt(p) for p in row)};"
            )
        out.append("}")
    return "\n".join(out) + "\n"


def load_document(path: str | Path, fmt: str = "auto") -> NetworkDocument:
    """Read a `.sexp` or `.bif` file into a NetworkDocument; fmt "sexp" or
    "bif" picks the parser whatever the suffix."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    kind = path.suffix if fmt == "auto" else "." + fmt
    if kind == ".sexp":
        return NetworkDocument(text, parse_sexpr(text))
    if kind == ".bif":
        return NetworkDocument(text, parse_bif_subset(text))
    raise ValueError(f"unsupported network file extension {path.suffix!r}")
