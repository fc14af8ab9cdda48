"""Constructors for the synthetic populations, and the loader of the bundled
benchmark networks.

The toy populations (independent product, half-repeated, left/right-repeated)
use raw-binary encoding, so the attribute dimension equals the node count.
Benchmark networks shipped as data files use one-hot encoding.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import formats
from .model import BayesianNetwork, InvalidNetworkError, NodeSpec, ONE_HOT, RAW_BINARY, validate

LEFT = "left"
RIGHT = "right"

# Toy populations draw their Bernoulli parameters from this range, keeping
# every marginal safely interior.
TOY_PARAM_RANGE = (0.2, 0.8)


def _bern_root(name: str, p: float) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (), {(): (1.0 - p, p)})


def _copy_node(name: str, parent: str) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (parent,), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})


def midpoint(d: int) -> int:
    """Index (1-based) of the pivot attribute used by the repeated populations."""
    return d // 2 + 1


def _copy_layout(d: int, side: str) -> tuple[int, ...]:
    """The source (0-based) of each of the d attributes on one side of the
    repeated populations; an attribute that is its own source is an
    independent Bernoulli root, one parameter each, and the others copy
    their source.  With m = midpoint(d): on the right side X_{m+1}..X_d
    copy X_m, on the left side X_2..X_{m-1} copy X_1."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    m = midpoint(d)
    if side == RIGHT:
        return tuple(min(j, m - 1) for j in range(d))
    if side == LEFT:
        return tuple(0 if j < m - 1 else j for j in range(d))
    raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")


def _side_params(d: int, side: str, rng) -> tuple[float, ...]:
    """One side's Bernoulli parameters, drawn from rng within
    TOY_PARAM_RANGE, one per root of its copy layout."""
    return tuple(rng.uniform(*TOY_PARAM_RANGE, size=len(set(_copy_layout(d, side)))))


def _layout_nodes(
    layout: Sequence[int], p: Sequence[float], what: str = "parameters"
) -> list[NodeSpec]:
    """Attribute X_{j+1} of a layout as a node: a root drawn with the next
    parameter of p, or an exact copy of its source.  p must hold one
    parameter per root, each strictly inside (0, 1); `what` names p in the
    error."""
    roots = len(set(layout))
    if len(p) != roots:
        raise ValueError(f"need {roots} {what}, got {len(p)}")
    if any(not (0.0 < q < 1.0) for q in p):
        raise ValueError("Bernoulli parameters must lie strictly inside (0, 1)")
    params = iter(p)
    return [
        _bern_root(f"X{j + 1}", next(params)) if s == j else _copy_node(f"X{j + 1}", f"X{s + 1}")
        for j, s in enumerate(layout)
    ]


def _mix(coin: str, sides: Sequence[NodeSpec]) -> NodeSpec:
    """The node whose table, given the coin's state c, is sides[c]'s table:
    its parents are the coin, then every side's parents once, in order."""
    extra = tuple(dict.fromkeys(q for node in sides for q in node.parents))
    cpt = {}
    # Toy attributes are binary, so each extra parent takes the states 0, 1.
    for combo in itertools.product(range(len(sides)), *[(0, 1)] * len(extra)):
        node = sides[combo[0]]
        cpt[combo] = node.cpt[tuple(combo[1 + extra.index(q)] for q in node.parents)]
    return NodeSpec(sides[0].name, sides[0].states, (coin, *extra), cpt)


def _toy(d: int, nodes: Sequence[NodeSpec]) -> BayesianNetwork:
    return BayesianNetwork(tuple(nodes), tuple(f"X{j + 1}" for j in range(d)), RAW_BINARY)


def make_product(p: Sequence[float]) -> BayesianNetwork:
    """d independent Bernoulli attributes; the marginals equal p exactly."""
    if len(p) == 0:
        raise ValueError("p must be nonempty")
    return _toy(len(p), _layout_nodes(range(len(p)), p))


def make_half_repeated(d: int, p: Sequence[float]) -> BayesianNetwork:
    """First floor(d/2)+1 attributes independent, the rest copies of the pivot:
    the right side's layout."""
    return _toy(d, _layout_nodes(_copy_layout(d, RIGHT), p))


def make_lr_side(d: int, p: Sequence[float], side: str) -> BayesianNetwork:
    """One side of the left/right population, with the side fixed (no coin).

    side="right": X_1..X_mid independent Bern(p), X_{mid+1}..X_d copies of X_mid.
    side="left": X_1 ~ Bern(p[0]) with X_2..X_{mid-1} copies of it, and
    X_mid..X_d independent Bern(p[1:]).
    """
    if d % 2 != 0:
        raise ValueError("d must be even")
    return _toy(d, _layout_nodes(_copy_layout(d, side), p, f"{side}-side parameters"))


def make_lr_repeated(
    d: int, p_right: Sequence[float], p_left: Sequence[float]
) -> BayesianNetwork:
    """A hidden fair coin picks which half of the attributes is repeated.

    Each sampled record carries its own coin.  With side=right, X_1..X_mid are
    independent and X_{mid+1}..X_d copy X_mid; with side=left, X_1..X_{mid-1}
    all copy one Bernoulli source and X_mid..X_d are independent.  Each
    attribute's table, given the coin, is its table in `make_lr_side` of that
    side.  The coin is hidden: the output nodes are X_1..X_d only.
    """
    if d % 2 != 0:
        raise ValueError("d must be even")
    coin = NodeSpec("side", (RIGHT, LEFT), (), {(): (0.5, 0.5)})
    right = _layout_nodes(_copy_layout(d, RIGHT), p_right, "right-side parameters")
    left = _layout_nodes(_copy_layout(d, LEFT), p_left, "left-side parameters")
    return _toy(d, [coin] + [_mix(coin.name, pair) for pair in zip(right, left)])


# Output node selections for the sachs benchmark, named by where they sit in
# the graph.
SACHS_OUTPUT_SETS = {
    "right-sub": ("Plcg", "PIP3", "PIP2"),
    "leaves": ("Akt", "Jnk", "P38", "PIP2"),
    "leaf-root": ("PKC", "Akt", "Jnk", "P38", "Plcg", "PIP2"),
    "leaf-parent": ("PKA", "Akt", "Jnk", "P38", "Plcg", "PIP3"),
    "path-left": ("PKC", "Raf", "Mek", "Erk", "Akt"),
    "path-right": ("PKC", "PKA", "Mek", "Erk", "Akt"),
}

# Every bundled network as the suites use it: sachs through its output sets,
# the others releasing every node.
BUNDLED_BENCHMARKS = ("cancer", "earthquake", "asia", "survey") + tuple(
    f"sachs:{s}" for s in SACHS_OUTPUT_SETS
)


@lru_cache(maxsize=None)
def load_benchmark(name: str) -> BayesianNetwork:
    """Load a bundled benchmark network by name, with one-hot outputs.

    Plain names (cancer, earthquake, asia, survey, sachs) release every node;
    "sachs:<set>" picks one of SACHS_OUTPUT_SETS.  Cached per name, so the
    returned instance is shared; treat it as immutable.  It holds no output
    law: `output_marginal_law` builds one for the caller to keep.
    """
    base, _, variant = name.partition(":")
    path = resources.files("bnmia.data").joinpath(f"{base}.bif")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"unknown benchmark network {base!r}") from None
    bn = formats.parse_bif_subset(text)
    if variant:
        if base != "sachs" or variant not in SACHS_OUTPUT_SETS:
            raise ValueError(f"unknown benchmark variant {name!r}")
        return bn.with_outputs(SACHS_OUTPUT_SETS[variant], ONE_HOT)
    return bn.with_outputs(bn.node_names, ONE_HOT)


def is_toy(name: str) -> bool:
    """Whether a population name is a toy population (product:<d>, half:<d>,
    lr:<d>), whose Bernoulli parameters are drawn afresh on each resolve."""
    return name.partition(":")[0] in ("product", "half", "lr")


def resolve_network(
    name: str,
    rng,
    output_nodes: Sequence[str] | None = None,
    encoding: str | None = None,
) -> BayesianNetwork:
    """The network a population name or file path denotes, validated.

    Toy names (`is_toy`) draw fresh Bernoulli parameters from rng within
    TOY_PARAM_RANGE, one per root: product:<d> draws d, half:<d> its right
    side's, and lr:<d> its right side's and then its left side's; no other
    name reads rng.  A toy size that is not a positive decimal integer (even,
    for lr) is a ValueError naming the population, raised before any draw.
    A name with a path separator or a file suffix is a file, read by
    `formats.load_document`, whose text decides the format, and releases
    every node one-hot.  Any other name is a bundled benchmark, even
    when a file of that name exists in the working directory.
    output_nodes and encoding then override the released outputs.  Raises
    InvalidNetworkError on any problem `validate` reports.
    """
    if is_toy(name):
        kind, _, arg = name.partition(":")
        d = int(arg) if arg.isascii() and arg.isdecimal() else 0
        if d < 1 or (kind == "lr" and d % 2):
            size = "a positive even integer" if kind == "lr" else "a positive integer"
            raise ValueError(f"population {name!r}: the size must be {size}")
        if kind == "product":
            bn = make_product(tuple(rng.uniform(*TOY_PARAM_RANGE, size=d)))
        elif kind == "half":
            bn = make_half_repeated(d, _side_params(d, RIGHT, rng))
        else:  # the right side's parameters are drawn before the left's
            bn = make_lr_repeated(d, _side_params(d, RIGHT, rng), _side_params(d, LEFT, rng))
    elif Path(name).name != name or Path(name).suffix:
        bn = formats.load_document(name)
        bn = bn.with_outputs(bn.node_names, ONE_HOT)
    else:
        bn = load_benchmark(name)
    if output_nodes is not None:
        bn = bn.with_outputs(output_nodes, encoding or bn.encoding)
    elif encoding is not None:
        bn = bn.with_outputs(bn.output_nodes, encoding)
    problems = validate(bn)
    if problems:
        raise InvalidNetworkError("; ".join(problems))
    return bn
