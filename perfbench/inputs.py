"""Seeded benchmark inputs, written as files the program reads.

For one workload and seed this writes molecule files plus a manifest, a
``key = value`` config for the command under test, a warm-up dataset of
four tiny molecules, and (for ``eval``) a checkpoint made by
``init_params`` and ``save_checkpoint``.  Everything the worker needs to
run and check the workload goes into ``plan.json`` beside them.

The molecules follow QM9's definition: nine heavy atoms from C, N, O and F,
hydrogens making up the rest, at most 29 atoms.  Sizes are a fixed mix per
molecule count: stratified quantiles of a triangular distribution over
9..29 atoms with mode 16, so the mean is about 18 atoms.  Each size's
place in the list and so its ring count (none, a benzene-like ring or an
indane-like fused pair) are fixed; the seed decides the skeleton, where the
hydrogens sit, the elements, the geometry (and with it the global edges)
and the targets.  The config seed is fixed, so the split picks the same
sizes for every workload seed.  Holding sizes, ring counts and so the local
edge counts keeps the work per run steady across seeds.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# The paper's architecture: hidden 128, 6 blocks, 2 residual stages,
# 32 molecules per optimizer step, bonds as the local layer.
PAPER_DIMS = {
    "hidden": 128,
    "layers": 6,
    "residuals": 2,
    "batch_group": 32,
    "local_rule": "bonds",
}

# Per workload: molecule count per scale, and split fractions chosen so
# that count * fraction is a whole number.
WORKLOADS = {
    "train": {"paper": 40, "tiny": 20, "fractions": (0.8, 0.1, 0.1)},
    "eval": {"paper": 40, "tiny": 10, "fractions": (0.2, 0.0, 0.8)},
    "featurize": {"paper": 320, "tiny": 8, "fractions": None},
}

# Triangular size distribution (low, mode, high) in atoms per scale.
SIZES = {"paper": (9, 16, 29), "tiny": (4, 5, 8)}

# With one optimizer step per epoch the first step has learning rate 0
# (linear warm-up across epoch 0), so three epochs give two moving steps.
TRAIN_EPOCHS = 3
WARMUP_SEED = 11
_TRIES = 64  # random directions tried per atom

# QM9 (Ramakrishnan et al., "Quantum chemistry structures and properties of
# 134 kilo molecules", Sci. Data 1, 140022, 2014): at most nine heavy atoms
# from C, N, O and F, hydrogens making up the rest, at most 29 atoms.
HEAVY_MAX = 9
VALENCE = {6: 4, 7: 3, 8: 2, 9: 1}
HEAVY_DRAW = (6, 6, 6, 7, 8, 9)  # drawn among those whose valence fits

# Fixed size order and config seed (split, init, batch order), the same
# for every workload seed.
SIZE_SEED = 5
CONFIG_SEED = 0


def molecule_sizes(n: int, low: int, mode: int, high: int) -> list[int]:
    """Atom counts at the n stratified quantiles of a triangular law."""
    span = high - low
    cut = (mode - low) / span
    out = []
    for k in range(n):
        q = (k + 0.5) / n
        if q < cut:
            x = low + math.sqrt(q * span * (mode - low))
        else:
            x = high - math.sqrt((1.0 - q) * span * (high - mode))
        out.append(int(round(x)))
    return out


def composition(n_atoms: int, index: int) -> tuple[int, int]:
    """Heavy atoms and rings of the ``index``-th molecule of ``n_atoms`` atoms.

    Nine heavy atoms (all atoms when there are fewer), hydrogens the rest.
    Ring count cycles 0, 1, 2 over the molecule index, capped by what the
    hydrogens leave room for (all-carbon valence gives
    ``2 * heavy + 2 - 2 * rings`` hydrogen sites) and by the core's size:
    a single ring needs six heavy atoms, the fused pair nine.
    """
    heavy = min(HEAVY_MAX, n_atoms)
    room = (2 * heavy + 2 - (n_atoms - heavy)) // 2
    fits = 2 if heavy >= 9 else 1 if heavy >= 6 else 0
    return heavy, min(index % 3, room, fits)


def _core(rings: int):
    # Ring atoms, their bonds and planar coordinates in units of the bond
    # length: a regular hexagon (circumradius 1), fused for two rings with a
    # regular pentagon on its 0-1 edge (the indane skeleton).
    if rings == 0:
        return 1, [], np.zeros((1, 3))
    ang = np.radians([-30.0 + 60.0 * i for i in range(6)])
    pts = [(math.cos(a), math.sin(a)) for a in ang]
    edges = [(i, (i + 1) % 6) for i in range(6)]
    if rings == 2:
        # Pentagon centre: hexagon apothem plus pentagon apothem along x.
        cx = math.cos(math.radians(30.0)) + 0.5 / math.tan(math.radians(36.0))
        r5 = 0.5 / math.sin(math.radians(36.0))
        for deg in (72.0, 0.0, -72.0):
            a = math.radians(deg)
            pts.append((cx + r5 * math.cos(a), r5 * math.sin(a)))
        edges += [(1, 6), (6, 7), (7, 8), (8, 0)]
    coords = np.array([(x, y, 0.0) for x, y in pts])
    return len(pts), edges, coords


def _topology(rng, n_atoms, heavy, rings):
    # Heavy skeleton (ring core, then each further heavy atom bonded to a
    # random earlier one with a free site), hydrogens on random free sites,
    # then elements whose valence covers each atom's bond count.
    n_core, edges, unit = _core(rings)
    deg = [0] * n_atoms
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    for j in range(n_core, heavy):
        free = [i for i in range(j) if deg[i] < 4]
        i = free[rng.integers(len(free))]
        edges.append((i, j))
        deg[i] += 1
        deg[j] = 1
    sites = [i for i in range(heavy) for _ in range(4 - deg[i])]
    for k, pick in enumerate(rng.choice(len(sites), n_atoms - heavy, replace=False)):
        edges.append((sites[pick], heavy + k))
        deg[sites[pick]] += 1
        deg[heavy + k] = 1
    z = []
    for i in range(heavy):
        allowed = [a for a in HEAVY_DRAW if VALENCE[a] >= deg[i]]
        z.append(int(allowed[rng.integers(len(allowed))]))
    z += [1] * (n_atoms - heavy)
    return z, edges, n_core, unit


def _place(rng, z, edges, n_core, unit):
    # The ring core is planar with its bond length the mean covalent bond of
    # its bonds.  The rest grows in breadth-first order: each atom sits a
    # covalent bond length from its parent and beyond the covalent bonding
    # limit (plus a margin) from every other atom, so the covalent rule
    # finds exactly these bonds.  Of the random directions that fit, the one
    # nearest the centre wins, which keeps molecules compact and their
    # global edge counts steady.  Returns None when crowded.
    from mxmnet import elements, graph

    radius = np.array([elements.covalent_radius(int(a)) for a in z])
    limit = graph.BOND_SLACK + 0.25
    nbrs = {i: [] for i in range(len(z))}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    coords = np.full((len(z), 3), np.nan)
    core_bonds = [radius[a] + radius[b] for a, b in edges if b < n_core]
    coords[:n_core] = unit * (np.mean(core_bonds) if core_bonds else 0.0)
    placed = list(range(n_core))
    queue = list(placed)
    while queue:
        parent = queue.pop(0)
        for child in nbrs[parent]:
            if child in placed:
                continue
            others = np.array([q for q in placed if q != parent], dtype=np.int64)
            centre = coords[placed].mean(axis=0)
            direction = rng.normal(size=(_TRIES, 3))
            direction /= np.linalg.norm(direction, axis=1)[:, None]
            bond = (radius[parent] + radius[child]) * rng.uniform(0.95, 1.05, size=_TRIES)
            cand = coords[parent] + bond[:, None] * direction
            gap = np.linalg.norm(cand[:, None, :] - coords[others][None, :, :], axis=2)
            fits = np.all(gap > radius[others] + radius[child] + limit, axis=1)
            if not fits.any():
                return None
            dist = np.where(fits, np.linalg.norm(cand - centre, axis=1), np.inf)
            coords[child] = cand[np.argmin(dist)]
            placed.append(child)
            queue.append(child)
    return coords


def make_molecules(rng, sizes, prefix):
    """QM9-like molecules of the given atom counts, and their bond counts.

    Composition and ring count follow ``composition``; the seed sets the
    skeleton, where the hydrogens sit, the elements, the geometry and the
    target.  No bond list is written: the program derives the bonds with
    its covalent rule, and a molecule with ``r`` rings must give
    ``n_atoms - 1 + r`` of them.
    """
    from mxmnet.data import Molecule

    mols, bonds = [], []
    for k, n_atoms in enumerate(sizes):
        heavy, rings = composition(n_atoms, k)
        coords = None
        while coords is None:
            z, edges, n_core, unit = _topology(rng, n_atoms, heavy, rings)
            coords = _place(rng, z, edges, n_core, unit)
        m = Molecule(z, coords, key=f"{prefix}{k:04d}")
        m.targets["u0"] = float(rng.normal())
        mols.append(m)
        bonds.append(len(edges))
    return mols, bonds


def _split_sizes(n: int, fractions) -> dict[str, int]:
    # The expected split sizes; the fractions in WORKLOADS make every
    # product whole, so there is no rounding question to agree on.
    return {
        name: int(round(n * f))
        for name, f in zip(("train", "val", "test"), fractions)
    }


def _write_config(path, manifest, out, fractions, extra=None):
    keys = dict(PAPER_DIMS)
    keys.update(
        manifest=os.path.abspath(manifest),
        target="u0",
        seed=CONFIG_SEED,
        out=os.path.abspath(out),
        train_frac=fractions[0],
        val_frac=fractions[1],
        test_frac=fractions[2],
    )
    keys.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write(f"{key} = {value}\n")
    return os.path.abspath(path)


def write_inputs(workload: str, seed: int, scale: str, work_dir: str) -> dict:
    """Write every input of one run under ``work_dir``; return the plan."""
    from mxmnet import fixtures, model

    spec = WORKLOADS[workload]
    n = spec[scale]
    os.makedirs(work_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    sizes = molecule_sizes(n, *SIZES[scale])
    order = np.random.default_rng(SIZE_SEED).permutation(n)
    mols, bonds = make_molecules(rng, [sizes[k] for k in order], "m")
    manifest = fixtures.write_molecule_dir(mols, os.path.join(work_dir, "mols"))

    warm, _ = make_molecules(np.random.default_rng(WARMUP_SEED), [3, 4, 4, 5], "w")
    warm_manifest = fixtures.write_molecule_dir(warm, os.path.join(work_dir, "warm"))

    plan = {
        "workload": workload,
        "manifest": os.path.abspath(manifest),
        "warm_manifest": os.path.abspath(warm_manifest),
        "molecules": n,
        "atoms": int(sum(m.n_atoms for m in mols)),
        "bonds": bonds,
    }
    fractions = spec["fractions"]
    if workload == "train":
        plan["epochs"] = TRAIN_EPOCHS
        plan["split"] = _split_sizes(n, fractions)
        extra = {"epochs": TRAIN_EPOCHS}
        plan["out"] = os.path.abspath(os.path.join(work_dir, "train_out"))
        plan["config"] = _write_config(
            os.path.join(work_dir, "train.cfg"), manifest, plan["out"], fractions, extra
        )
        plan["warm_out"] = os.path.abspath(os.path.join(work_dir, "warm_out"))
        plan["warm_config"] = _write_config(
            os.path.join(work_dir, "warm.cfg"),
            warm_manifest,
            plan["warm_out"],
            (0.5, 0.25, 0.25),
            extra,
        )
    elif workload == "eval":
        plan["split"] = _split_sizes(n, fractions)
        plan["checkpoint"] = os.path.abspath(os.path.join(work_dir, "model.ckpt"))
        cfg = model.ModelConfig(
            hidden_dim=PAPER_DIMS["hidden"],
            n_layers=PAPER_DIMS["layers"],
            n_residuals=PAPER_DIMS["residuals"],
        )
        model.save_checkpoint(model.init_params(cfg, seed), plan["checkpoint"])
        out = os.path.join(work_dir, "eval_out")
        plan["config"] = _write_config(
            os.path.join(work_dir, "eval.cfg"), manifest, out, fractions
        )
        plan["warm_config"] = _write_config(
            os.path.join(work_dir, "warm.cfg"), warm_manifest, out, (0.5, 0.0, 0.5)
        )
    with open(os.path.join(work_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return plan
