"""Reference implementations that the array paths must match bit for bit:
the one-record ancestral sampler, the dict encoder and the per-threshold ROC
sweep they replaced."""
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


def reference_roc_points(scores_in, scores_out) -> tuple[tuple[float, float], ...]:
    """The ROC points by one sweep per distinct score, largest first."""
    s_in = np.asarray(scores_in, dtype=float)
    s_out = np.asarray(scores_out, dtype=float)
    points = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([s_in, s_out]))[::-1]:
        points.append((float(np.mean(s_out >= t)), float(np.mean(s_in >= t))))
    return tuple(points)
