"""Generate data/sachs.bif: a deterministic stand-in parameterization.

The protein-signaling benchmark's published DAG (11 ternary nodes) is kept,
but the canonical table values are not redistributable here, so rows are
drawn once from a fixed-seed Dirichlet and frozen into the repository.
Regenerating with this script reproduces the file byte for byte, and a test
checks that `sachs_text` still builds exactly the bundled text.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

SEED = 118999
CONCENTRATION = 0.3
STATES = ("LOW", "AVG", "HIGH")

# (node, parents) in topological order.
STRUCTURE = [
    ("PKC", ()),
    ("Plcg", ()),
    ("PKA", ("PKC",)),
    ("Raf", ("PKC", "PKA")),
    ("Mek", ("PKC", "PKA", "Raf")),
    ("Erk", ("Mek", "PKA")),
    ("Akt", ("Erk", "PKA")),
    ("Jnk", ("PKC", "PKA")),
    ("P38", ("PKC", "PKA")),
    ("PIP3", ("Plcg",)),
    ("PIP2", ("Plcg", "PIP3")),
]


def format_row(rng: np.random.Generator) -> str:
    raw = rng.dirichlet([CONCENTRATION] * len(STATES))
    raw = np.clip(raw, 0.0005, None)
    raw = raw / raw.sum()
    cells = [round(x, 6) for x in raw[:-1]]
    cells.append(round(1.0 - sum(cells), 6))
    return ", ".join(f"{c:.6f}" for c in cells)


def sachs_text() -> str:
    """The stand-in's BIF text, its rows drawn afresh from SEED."""
    rng = np.random.default_rng(SEED)
    out = ["network unknown {", "}"]
    for name, _ in STRUCTURE:
        out.append(f"variable {name} {{")
        out.append(f"  type discrete [ 3 ] {{ {', '.join(STATES)} }};")
        out.append("}")
    for name, parents in STRUCTURE:
        if not parents:
            out.append(f"probability ( {name} ) {{")
            out.append(f"  table {format_row(rng)};")
            out.append("}")
            continue
        out.append(f"probability ( {name} | {', '.join(parents)} ) {{")
        combos = [()]
        for _ in parents:
            combos = [c + (s,) for c in combos for s in STATES]
        for combo in combos:
            out.append(f"  ({', '.join(combo)}) {format_row(rng)};")
        out.append("}")
    return "\n".join(out) + "\n"


def main() -> None:
    target = Path(__file__).resolve().parent.parent / "src" / "bnmia" / "data" / "sachs.bif"
    target.write_text(sachs_text(), encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
