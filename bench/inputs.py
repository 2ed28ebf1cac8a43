"""The benchmark's inputs: the committed audit catalog and the seeded
generator of broken tables.

Run ``python3 bench/inputs.py`` from the repository root to rewrite
``bench/inputs/``: one .kmn file per structure of the 233-structure audit
catalog (the default catalog plus every other order-4 (2,2) structure) and
``manifest.json`` with each structure's make-up, as the reference checker
sees it, and the reference counts of the ``build`` shapes the checker does
not brute-force.  Running it again on an unchanged workbench reproduces
every file byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, product
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
MANIFEST = INPUTS / "manifest.json"

# (m, n, order) in the order one build pass enumerates them
BUILD_SHAPES = [
    (m, n, order)
    for (m, n) in ((2, 2), (3, 2), (2, 3), (3, 3))
    for order in (1, 2, 3)
] + [(2, 4, 3), (2, 2, 4)]

# shapes whose brute-force count costs the checker under two seconds
BRUTE_FORCE_SHAPES = [s for s in BUILD_SHAPES if s[2] <= 2 or s in ((2, 2, 3), (2, 3, 3))]


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def read_catalog(manifest: dict, names=None) -> dict:
    """name -> .kmn text of every audit input, or of those in ``names``."""
    return {
        s["name"]: (INPUTS / s["file"]).read_text(encoding="utf-8")
        for s in manifest["structures"]
        if names is None or s["name"] in names
    }


def audit_groups(manifest: dict) -> list:
    """The audit operations: each order-4 structure on its own, the
    structures of order <= 3 grouped by arity.  Homomorphism fixtures only
    pair equal arities at order <= 3, so the split changes no cell."""
    groups: dict = {}
    for s in manifest["structures"]:
        key = s["name"] if s["order"] >= 4 else f"m{s['m']}n{s['n']}-le3"
        groups.setdefault(key, []).append(s["name"])
    return [names for _, names in sorted(groups.items())]


# -- broken tables -----------------------------------------------------------


def random_table_text(rng: random.Random, index: int) -> str:
    """A well-formed, mostly unverified structure over a carrier of 2-3
    elements, arities 2-3: zero ("0") is neutral for f and absorbing for g,
    every other entry is random.  The right zero rows make {0} a hyperideal,
    so the lattice, classifier and quotient calls all run on these tables.
    The declared identity is the one the checker detects, so the file is
    exactly what exporting the parsed structure writes back."""
    size, m, n = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((2, 3))
    labels = [str(i) for i in range(size)]
    subsets = [c for r in range(1, size + 1) for c in combinations(range(size), r)]
    f = {
        k: (k[-1],) if k[:-1] == (0,) * (m - 1) else rng.choice(subsets)
        for k in _multisets(size, m)
    }
    g = {k: 0 if 0 in k else rng.randrange(size) for k in _multisets(size, n)}
    table = checker.Table(
        size, m, n, 0,
        {t: frozenset(f[tuple(sorted(t))]) for t in product(range(size), repeat=m)},
        {t: g[tuple(sorted(t))] for t in product(range(size), repeat=n)},
    )
    one = checker.identity(table)
    doc = {
        "name": f"broken-{index:03d}",
        "m": m,
        "n": n,
        "elements": labels,
        "zero": "0",
        "one": None if one is None else labels[one],
        "f": [{"args": [labels[i] for i in k], "value": [labels[v] for v in vs]}
              for k, vs in sorted(f.items())],
        "g": [{"args": [labels[i] for i in k], "value": labels[v]}
              for k, v in sorted(g.items())],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_tables(seed: int, count: int) -> dict:
    rng = random.Random(seed)
    texts = (random_table_text(rng, i) for i in range(count))
    return {f"broken-{i:03d}": t for i, t in enumerate(texts)}


def _multisets(size: int, arity: int) -> list:
    return sorted({tuple(sorted(t)) for t in product(range(size), repeat=arity)})


# -- the input command -------------------------------------------------------


def describe(name: str, text: str) -> dict:
    """One manifest row, from the reference checker's reading of the file."""
    T = checker.Table.from_text(text)
    ideals = checker.hyperideals(T)
    return {
        "name": name,
        "file": f"audit/{name}.kmn",
        "order": T.size,
        "m": T.m,
        "n": T.n,
        "identity": checker.identity(T) is not None,
        "verified": checker.is_krasner(T),
        "proper_ideals": sum(1 for I in ideals if len(I) < T.size),
    }


def write_inputs(dest: Path = INPUTS) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from hyperring import default_catalog, enumerate_structures, export_structure

    catalog = default_catalog()
    structures = [(e.structure, e.claims) for e in catalog]
    names = {S.name for S, _ in structures}
    structures += [(S, ()) for S in enumerate_structures(2, 2, 4) if S.name not in names]
    structures.sort(key=lambda pair: pair[0].name)

    (dest / "audit").mkdir(parents=True, exist_ok=True)
    rows = []
    for S, claims in structures:
        text = export_structure(S)
        (dest / "audit" / f"{S.name}.kmn").write_text(text, encoding="utf-8")
        row = describe(S.name, text)
        row["claims"] = [c.as_dict() for c in claims]
        rows.append(row)
    reference = {
        f"{m},{n},{order}": len(enumerate_structures(m, n, order))
        for (m, n, order) in BUILD_SHAPES
        if (m, n, order) not in BRUTE_FORCE_SHAPES
    }
    manifest = {"reference_counts": reference, "structures": rows}
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (dest / MANIFEST.name).write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} structures and {len(reference)} reference counts to {dest}")


if __name__ == "__main__":
    write_inputs()
