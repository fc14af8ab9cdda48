"""One-record reference implementations that the batched array paths must
match bit for bit: the ancestral sampler and the dict encoder they replaced."""
from __future__ import annotations

import numpy as np

from bnmia.model import RAW_BINARY


def reference_sample(bn, rng: np.random.Generator) -> dict[str, int]:
    """Draw one full record, one uniform per node in topological order."""
    rec: dict[str, int] = {}
    for node in bn.nodes:
        cum = np.cumsum(node.cpt[tuple(rec[p] for p in node.parents)])
        rec[node.name] = int(np.searchsorted(cum, rng.random(), side="right"))
    return rec


def reference_encode(bn, rec: dict[str, int]) -> tuple[int, ...]:
    """Encode one record's output nodes as a bit tuple."""
    if bn.encoding == RAW_BINARY:
        return tuple(rec[v] for v in bn.output_nodes)
    bits: list[int] = []
    for v in bn.output_nodes:
        block = [0] * bn.node(v).cardinality
        block[rec[v]] = 1
        bits.extend(block)
    return tuple(bits)


def states_of(names, records) -> np.ndarray:
    """The (m, len(names)) state array of dict records."""
    return np.array([[rec[v] for v in names] for rec in records], dtype=np.int64).reshape(
        -1, len(names)
    )
