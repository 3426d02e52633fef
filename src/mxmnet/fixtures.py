"""Deterministic fixture molecules and synthetic generators for tests,
verification and benchmarks.

Random molecules grow atom by atom: each new atom sits a bond-ish length
from a random previous one, rejected when it crowds the rest.  That keeps
covalent-rule bonding connected and geometry non-degenerate.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .data import Dataset, Molecule, save_molecule

__all__ = [
    "water",
    "dihydrogen",
    "methane",
    "random_molecule",
    "fixture_set",
    "overfit_set",
    "random_rotation",
    "rigid_transform",
    "permute_atoms",
    "random_points",
    "random_simple_graph",
    "write_molecule_dir",
    "dataset_from",
]

_WATER_ANGLE = math.radians(104.52)
_WATER_OH = 0.9572


def water() -> Molecule:
    """H2O with the textbook 104.52 degree H-O-H angle, oxygen at origin."""
    coords = [
        [0.0, 0.0, 0.0],
        [_WATER_OH, 0.0, 0.0],
        [_WATER_OH * math.cos(_WATER_ANGLE), _WATER_OH * math.sin(_WATER_ANGLE), 0.0],
    ]
    return Molecule(
        [8, 1, 1], coords, bonds=[(0, 1), (0, 2)], targets={"u0": -76.4}, key="water"
    )


def dihydrogen() -> Molecule:
    return Molecule(
        [1, 1],
        [[0.0, 0.0, 0.0], [0.74, 0.0, 0.0]],
        bonds=[(0, 1)],
        targets={"u0": -1.17},
        key="h2",
    )


def methane() -> Molecule:
    """CH4, ideal tetrahedral geometry, C-H 1.087 Angstrom."""
    r = 1.087 / math.sqrt(3.0)
    coords = [
        [0.0, 0.0, 0.0],
        [r, r, r],
        [r, -r, -r],
        [-r, r, -r],
        [-r, -r, r],
    ]
    bonds = [(0, k) for k in range(1, 5)]
    return Molecule([6, 1, 1, 1, 1], coords, bonds=bonds, targets={"u0": -40.5}, key="ch4")


_GROW_ELEMENTS = (1, 6, 7, 8, 9)


def random_molecule(
    rng: np.random.Generator,
    n_atoms: int | None = None,
    key: str | None = None,
) -> Molecule:
    """Connected random structure with plausible bond lengths.

    Each atom is placed one covalent-bond length from a random anchor, so
    the covalent fallback rule always links it, and at least 0.9 Angstrom
    from everything else.  No explicit bond list is attached.
    """
    from . import elements as el

    if n_atoms is None:
        n_atoms = int(rng.integers(3, 8))
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    z = rng.choice(_GROW_ELEMENTS, size=n_atoms)
    coords = np.zeros((n_atoms, 3))
    for k in range(1, n_atoms):
        r_k = el.covalent_radius(int(z[k]))
        for _ in range(200):
            anchor = int(rng.integers(0, k))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            bond = (el.covalent_radius(int(z[anchor])) + r_k) * rng.uniform(0.95, 1.05)
            cand = coords[anchor] + bond * direction
            others = np.delete(np.arange(k), anchor)
            if others.size == 0 or np.all(
                np.linalg.norm(coords[others] - cand, axis=1) > 0.9
            ):
                coords[k] = cand
                break
        else:
            raise RuntimeError("could not place an atom without crowding")
    return Molecule(z, coords, key=key)


def fixture_set(n: int = 10, seed: int = 20260816) -> list[Molecule]:
    """Reference molecules for invariance checks: two hand-built plus
    random growths, all with deterministic geometry."""
    rng = np.random.default_rng(seed)
    mols = [water(), methane()]
    for k in range(n - len(mols)):
        mols.append(random_molecule(rng, key=f"rand{k}"))
    return mols[:n]


def overfit_set(n: int = 16, seed: int = 7) -> list[Molecule]:
    """Small memorization set: random structures with scalar targets drawn
    uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        m = random_molecule(rng, key=f"fit{k:02d}")
        m.targets["u0"] = float(rng.uniform(-1.0, 1.0))
        out.append(m)
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation matrix (det +1)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rigid_transform(m: Molecule, rot: np.ndarray, shift: np.ndarray) -> Molecule:
    """Rotate and translate a molecule's coordinates; everything else kept."""
    return Molecule(
        m.atomic_numbers.copy(),
        m.coords @ rot.T + shift,
        bonds=m.bonds,
        targets=m.targets,
        key=m.key,
    )


def permute_atoms(m: Molecule, perm) -> Molecule:
    """Relabel atoms by ``perm`` (new index -> old index)."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    bonds = None
    if m.bonds is not None:
        bonds = [(int(inv[a]), int(inv[b])) for a, b in m.bonds]
    return Molecule(
        m.atomic_numbers[perm],
        m.coords[perm],
        bonds=bonds,
        targets=m.targets,
        key=m.key,
    )


def random_points(n: int, side: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in a cube, for neighbor-scaling benchmarks."""
    return rng.uniform(0.0, side, size=(n, 3))


def random_simple_graph(rng: np.random.Generator, max_n: int = 12):
    """Erdos-Renyi-style simple graph: (n_nodes, undirected edge list)."""
    n = int(rng.integers(2, max_n + 1))
    p = float(rng.uniform(0.1, 0.9))
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return n, edges


def write_molecule_dir(mols, out_dir) -> str:
    """Write molecules plus a manifest listing them; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for m in mols:
        name = f"{m.key or 'mol'}.extxyz"
        save_molecule(m, os.path.join(out_dir, name))
        names.append(name)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(names) + "\n")
    return manifest


def dataset_from(mols, fractions, seed: int = 0) -> Dataset:
    from .data import split_dataset

    return split_dataset(Dataset(list(mols)), fractions, seed)
