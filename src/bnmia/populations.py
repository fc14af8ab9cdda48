"""Constructors for the synthetic populations, and the loader of the bundled
benchmark networks.

The toy populations (independent product, half-repeated, left/right-repeated)
use raw-binary encoding, so the attribute dimension equals the node count.
Benchmark networks shipped as data files use one-hot encoding.
"""
from __future__ import annotations

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


def _check_open_unit(p: Sequence[float]) -> None:
    if any(not (0.0 < q < 1.0) for q in p):
        raise ValueError("Bernoulli parameters must lie strictly inside (0, 1)")


def _bern_root(name: str, p: float) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (), {(): (1.0 - p, p)})


def _copy_node(name: str, parent: str) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (parent,), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})


def midpoint(d: int) -> int:
    """Index (1-based) of the pivot attribute used by the repeated populations."""
    return d // 2 + 1


def make_product(p: Sequence[float]) -> BayesianNetwork:
    """d independent Bernoulli attributes; the marginals equal p exactly."""
    if len(p) == 0:
        raise ValueError("p must be nonempty")
    _check_open_unit(p)
    nodes = tuple(_bern_root(f"X{j + 1}", q) for j, q in enumerate(p))
    names = tuple(n.name for n in nodes)
    return BayesianNetwork(nodes, names, RAW_BINARY)


def make_half_repeated(d: int, p: Sequence[float]) -> BayesianNetwork:
    """First floor(d/2)+1 attributes independent, the rest copies of the pivot."""
    m = midpoint(d)
    if len(p) != m:
        raise ValueError(f"need {m} parameters for d={d}, got {len(p)}")
    _check_open_unit(p)
    nodes = [_bern_root(f"X{j + 1}", q) for j, q in enumerate(p)]
    for j in range(m, d):
        nodes.append(_copy_node(f"X{j + 1}", f"X{m}"))
    names = tuple(f"X{j + 1}" for j in range(d))
    return BayesianNetwork(tuple(nodes), names, RAW_BINARY)


def make_lr_side(d: int, p: Sequence[float], side: str) -> BayesianNetwork:
    """One side of the left/right population, with the side fixed (no coin).

    side="right": X_1..X_mid independent Bern(p), X_{mid+1}..X_d copies of X_mid.
    side="left": X_1 ~ Bern(p[0]) with X_2..X_{mid-1} copies of it, and
    X_mid..X_d independent Bern(p[1:]).
    """
    if d % 2 != 0:
        raise ValueError("d must be even")
    m = midpoint(d)
    _check_open_unit(p)
    if side == RIGHT:
        if len(p) != m:
            raise ValueError(f"need {m} parameters for side=right, got {len(p)}")
        nodes = [_bern_root(f"X{j + 1}", q) for j, q in enumerate(p)]
        for j in range(m, d):
            nodes.append(_copy_node(f"X{j + 1}", f"X{m}"))
    elif side == LEFT:
        if len(p) != d - m + 2:
            raise ValueError(f"need {d - m + 2} parameters for side=left, got {len(p)}")
        nodes = [_bern_root("X1", p[0])]
        for j in range(1, m - 1):
            nodes.append(_copy_node(f"X{j + 1}", "X1"))
        for j, q in zip(range(m - 1, d), p[1:]):
            nodes.append(_bern_root(f"X{j + 1}", q))
    else:
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    names = tuple(f"X{j + 1}" for j in range(d))
    return BayesianNetwork(tuple(nodes), names, RAW_BINARY)


def make_lr_repeated(
    d: int, p_right: Sequence[float], p_left: Sequence[float]
) -> BayesianNetwork:
    """A hidden fair coin picks which half of the attributes is repeated.

    Each sampled record carries its own coin.  With side=right, X_1..X_mid are
    independent and X_{mid+1}..X_d copy X_mid; with side=left, X_1..X_{mid-1}
    all copy one Bernoulli source and X_mid..X_d are independent.  The coin is
    hidden: the output nodes are X_1..X_d only.
    """
    if d % 2 != 0:
        raise ValueError("d must be even")
    m = midpoint(d)
    if len(p_right) != m:
        raise ValueError(f"need {m} right-side parameters, got {len(p_right)}")
    if len(p_left) != d - m + 2:
        raise ValueError(f"need {d - m + 2} left-side parameters, got {len(p_left)}")
    _check_open_unit(p_right)
    _check_open_unit(p_left)

    coin = NodeSpec("side", (RIGHT, LEFT), (), {(): (0.5, 0.5)})
    nodes = [coin]

    def mix_root(name: str, p_r: float, p_l: float) -> NodeSpec:
        return NodeSpec(
            name, ("0", "1"), ("side",), {(0,): (1.0 - p_r, p_r), (1,): (1.0 - p_l, p_l)}
        )

    def mix_copy_or_root(name: str, copy_of: str, copy_when: int, p_other: float) -> NodeSpec:
        # Copies `copy_of` when the coin shows `copy_when`, else independent.
        rows = {}
        for c in (0, 1):
            for s in (0, 1):
                if c == copy_when:
                    rows[(c, s)] = (1.0, 0.0) if s == 0 else (0.0, 1.0)
                else:
                    rows[(c, s)] = (1.0 - p_other, p_other)
        return NodeSpec(name, ("0", "1"), ("side", copy_of), rows)

    # X1: right -> Bern(p_right[0]); left -> the source of the repeated block.
    nodes.append(mix_root("X1", p_right[0], p_left[0]))
    # X2..X_{mid-1}: right -> independent; left -> copies of X1.
    for j in range(1, m - 1):
        nodes.append(mix_copy_or_root(f"X{j + 1}", "X1", copy_when=1, p_other=p_right[j]))
    # X_mid: independent on both sides.
    nodes.append(mix_root(f"X{m}", p_right[m - 1], p_left[1]))
    # X_{mid+1}..X_d: right -> copies of X_mid; left -> independent.
    for j in range(m, d):
        nodes.append(
            mix_copy_or_root(f"X{j + 1}", f"X{m}", copy_when=0, p_other=p_left[j - m + 2])
        )
    names = tuple(f"X{j + 1}" for j in range(d))
    return BayesianNetwork(tuple(nodes), names, RAW_BINARY)


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
    returned instance (and its lazily computed law) is shared; treat it as
    immutable.
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

    Toy names (`is_toy`) draw fresh Bernoulli parameters from rng; no other
    name reads it.  A name with a path separator or a file suffix is a file,
    read by `formats.load_document`, whose text decides the format, and
    releases every node one-hot.  Any other name is a bundled benchmark, even
    when a file of that name exists in the working directory.
    output_nodes and encoding then override the released outputs.  Raises
    InvalidNetworkError on any problem `validate` reports.
    """
    lo, hi = TOY_PARAM_RANGE
    if is_toy(name):
        kind, _, arg = name.partition(":")
        d = int(arg)
        if kind == "product":
            bn = make_product(tuple(rng.uniform(lo, hi, size=d)))
        elif kind == "half":
            bn = make_half_repeated(d, tuple(rng.uniform(lo, hi, size=midpoint(d))))
        else:
            m = midpoint(d)
            bn = make_lr_repeated(
                d,
                tuple(rng.uniform(lo, hi, size=m)),
                tuple(rng.uniform(lo, hi, size=d - m + 2)),
            )
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
