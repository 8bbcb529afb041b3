"""Seeded input generator for the random-fano and box-oracle workloads.

    python3 bench/gen.py --seed 7 [--out DIR]

writes, under DIR (default ``bench/.inputs/seed-<seed>``):

* ``random-fano.json``: the manifest of the random Fano document set,
  one entry per document with the document, its file name and, for the
  check that runs after the timed section, the maximal cones of its
  ample fan as column index sets.  Twin entries also carry the matrices
  ``U`` and ``B`` and the entry they were made from.
* ``fano/NNN.json``: the documents themselves, in the format the
  ``gavindex`` command reads, without a listed fan.
* ``box-oracle.json``: the list of box scans, each a setting, an index
  and a bound.

The same seed always gives the same files.  Base documents are drawn
shape class by shape class with fixed counts, so every seed has the same
mix of shapes, and each one is kept only when the program finds it Fano
and both index routes return the same value.  A fixed number of base
documents in each class get a twin, made by a lattice automorphism and
not filtered.  Box bounds are drawn one per stratum of a fixed range,
so every seed spans the range evenly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Shape classes (r, c, s, block sizes n, extra columns m) with the
# number of base documents and of twins drawn in each.  Across classes
# the cost of one request runs from about 8 ms (r = 1) to 700 ms
# (r = 3) at the reference speed of bench/speed.py; within a class it
# varies by 5-10%, while a class that left n and m open would mix
# sub-shapes whose costs differ by a factor of two.  Free ranks above
# two are left out: the ample-fan search enumerates subsets of the
# columns, and one request can then run for minutes.  The 90th
# percentile of the 100 requests falls among the twenty (2, 1, 1)
# requests of free rank two, below the three single r = 3 and s = 2
# documents, and the median among the r = 1, s = 2 and (2, 2, 1)
# requests of 35-45 ms, so each percentile reads the middle of a class
# and moves little from seed to seed.
SHAPE_CLASSES = (
    ((1, 1, 1, (2, 1), 0), 14, 3),
    ((1, 1, 1, (2, 2), 0), 8, 2),
    ((1, 1, 2, (2, 2), 0), 8, 2),
    ((1, 1, 2, (2, 2), 1), 8, 2),
    ((2, 2, 1, (1, 1, 1), 1), 8, 2),
    ((2, 1, 1, (1, 1, 1), 1), 8, 2),
    ((2, 2, 1, (1, 2, 2), 0), 8, 2),
    ((2, 1, 1, (2, 2, 1), 0), 16, 4),
    ((2, 2, 2, (2, 2, 2), 0), 1, 0),
    ((3, 3, 1, (1, 1, 2, 2), 0), 1, 0),
    ((3, 2, 1, (1, 1, 1, 2), 0), 1, 0),
)
MAX_TRIES = 20000

_T_POOL = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
)

# (setting, indices, bound range, count).  Settings 2 and 3 at index 1
# keep nothing after the multiplier filter, so their scans are integer
# scanning alone; settings 1 and 5 at large bounds keep one to four
# tuples that then go through verification, which runs on polyhedra.
# A scan costs about the square of its bound.  The 24 setting-3 scans
# with bounds 180-200 are the ranks around the 90th percentile, with
# the setting 1 and 5 scans that verify cold tuples above them.
BOX_STRATA = (
    (2, (1,), (8, 24), 40),
    (3, (1,), (30, 150), 40),
    (3, (1,), (180, 200), 24),
    (1, (1, 2), (100, 250), 8),
    (5, (1, 2), (200, 500), 8),
)


def _random_shape_data(rng: random.Random, r: int, c: int, s: int, n, m: int) -> dict:
    l = [[rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(ni)] for ni in n]
    ts = rng.sample(_T_POOL, r + 1)
    A = [[str(t**k) for t in ts] for k in range(c + 1)]
    D = [
        [rng.choice((-2, -1, -1, 0, 0, 1, 1, 2)) for _ in range(sum(n) + m)]
        for _ in range(s)
    ]
    return {"r": r, "c": c, "n": list(n), "m": m, "l": l, "A": A, "D": D}


def p0_rows(doc: dict) -> list[list[int]]:
    """The exponent block P0 of a document, one row per block 1..r."""
    rows = []
    for i in range(1, doc["r"] + 1):
        row: list[int] = []
        for block, li in enumerate(doc["l"]):
            if block == 0:
                row.extend(-x for x in li)
            elif block == i:
                row.extend(li)
            else:
                row.extend(0 for _ in li)
        row.extend(0 for _ in range(doc["m"]))
        rows.append(row)
    return rows


def twin_rows(doc: dict, U: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """U.D + B.P0: the free rows after the lattice automorphism [[I, 0], [B, U]]."""
    D = doc["D"]
    P0 = p0_rows(doc)
    width = len(D[0])
    return [
        [
            sum(U[a][k] * D[k][j] for k in range(len(D)))
            + sum(B[a][k] * P0[k][j] for k in range(len(P0)))
            for j in range(width)
        ]
        for a in range(len(D))
    ]


def _random_unimodular(rng: random.Random, s: int) -> list[list[int]]:
    U = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    if s == 1:
        return [[rng.choice((1, -1))]]
    for _ in range(3):
        a, b = rng.sample(range(s), 2)
        k = rng.choice((-1, 1))
        U[a] = [x + k * y for x, y in zip(U[a], U[b])]
    if rng.random() < 0.5:
        U[0] = [-x for x in U[0]]
    return U


def _keep(doc: dict):
    """The ample fan's index sets when the program accepts the document, else None."""
    from gavindex import acomplex, errors, gav_core

    data = gav_core.make_data(
        r=doc["r"], c=doc["c"], n=doc["n"], m=doc["m"], l=doc["l"],
        A=[[Fraction(x) for x in row] for row in doc["A"]], D=doc["D"],
    )
    if gav_core.validate(data):
        return None
    try:
        fano, fan = gav_core.is_fano(data)
        if not fano:
            return None
        via_complex = acomplex.gorenstein_index_via_complex(data, fan)
        via_cones = acomplex.gorenstein_index_via_cones(data, fan)
    except errors.GavError:
        return None
    if via_complex != via_cones:
        return None
    return [list(s) for s in fan.index_sets]


def random_fano(seed: int) -> list[dict]:
    """Manifest entries (without file names) of the random-fano document set."""
    rng = random.Random(seed)
    entries: list[dict] = []
    for shape, count, twins in SHAPE_CLASSES:
        r, s = shape[0], shape[2]
        bases = []
        tries = 0
        while len(bases) < count:
            tries += 1
            if tries > MAX_TRIES:
                raise RuntimeError(f"no Fano document of shape {shape} found")
            doc = _random_shape_data(rng, *shape)
            cones = _keep(doc)
            if cones is not None:
                bases.append({"doc": doc, "cones": cones, "twin_of": None})
        first = len(entries)
        entries.extend(bases)
        for base in rng.sample(range(first, first + count), twins):
            doc = entries[base]["doc"]
            U = _random_unimodular(rng, s)
            B = [[rng.choice((-1, 0, 0, 1)) for _ in range(r)] for _ in range(s)]
            # column j of the twin is M times column j of the base, so
            # the base fan's index sets describe the twin's fan
            entries.append({
                "doc": dict(doc, D=twin_rows(doc, U, B)),
                "cones": entries[base]["cones"],
                "twin_of": base, "U": U, "B": B,
            })
    return entries


def box_scans(seed: int) -> list[dict]:
    rng = random.Random(seed * 7919 + 17)
    scans = []
    for setting, indices, (lo, hi), count in BOX_STRATA:
        for k in range(count):
            bound = lo + int((hi - lo) * (k + rng.random()) / count)
            scans.append(
                {"setting": setting, "index": indices[k % len(indices)], "bound": bound}
            )
    rng.shuffle(scans)
    return scans


def write_fano(seed: int, out: str) -> None:
    os.makedirs(os.path.join(out, "fano"), exist_ok=True)
    entries = random_fano(seed)
    for i, entry in enumerate(entries):
        name = f"fano/{i:03d}.json"
        with open(os.path.join(out, name), "w", encoding="utf-8") as handle:
            json.dump(entry["doc"], handle, sort_keys=True)
        entry["file"] = name
    with open(os.path.join(out, "random-fano.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "documents": entries}, handle, indent=1, sort_keys=True)


def write_box(seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "box-oracle.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "scans": box_scans(seed)}, handle, indent=1, sort_keys=True)


def default_dir(seed: int) -> str:
    return os.path.join(HERE, ".inputs", f"seed-{seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--workload",
        choices=("random-fano", "box-oracle"),
        help="write only this workload's inputs (default: both)",
    )
    args = parser.parse_args(argv)
    out = args.out or default_dir(args.seed)
    if args.workload != "box-oracle":
        sys.path.insert(0, os.path.join(ROOT, "src"))
        write_fano(args.seed, out)
    if args.workload != "random-fano":
        write_box(args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
