"""Molecules, the extended-xyz interchange format, datasets and splits.

File layout accepted by :func:`parse_molecule`::

    <atom count>
    <key>=<float> <key>=<float> ...          (may be empty)
    <symbol> <x> <y> <z>                      one line per atom
    BONDS                                     optional trailer
    <i> <j>                                   one line per bond

Coordinates are Angstrom.  Targets live on the second line.  Bond indices
are zero-based.  ``parse_molecule(serialize_molecule(m)) == m`` holds bit
for bit; floats are written with shortest round-trip precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elements

__all__ = [
    "DEFAULT_FRACTIONS",
    "Molecule",
    "Split",
    "Dataset",
    "TargetStats",
    "ParseError",
    "parse_molecule",
    "serialize_molecule",
    "load_molecule",
    "save_molecule",
    "load_manifest",
    "split_dataset",
    "target_stats",
    "load_atomrefs",
    "subtract_atomrefs",
]


class ParseError(ValueError):
    """Malformed molecule text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Molecule:
    """One structure: atomic numbers, coordinates, optional bonds, targets.

    ``key`` is dataset bookkeeping (usually the source path), not part of
    the serialized format and excluded from equality.
    """

    __slots__ = ("atomic_numbers", "coords", "bonds", "targets", "key")

    def __init__(self, atomic_numbers, coords, bonds=None, targets=None, key=None):
        z = np.asarray(atomic_numbers, dtype=np.int64)
        xyz = np.asarray(coords, dtype=np.float64)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("a molecule needs at least one atom")
        if np.any(z < 1):
            raise ValueError("atomic numbers must be positive")
        if xyz.shape != (z.size, 3):
            raise ValueError(
                f"coordinates shape {xyz.shape} does not match {z.size} atoms"
            )
        if not np.all(np.isfinite(xyz)):
            raise ValueError("coordinates must be finite")
        self.atomic_numbers = z
        self.coords = xyz
        self.targets = dict(targets) if targets else {}
        self.key = key
        if bonds is None:
            self.bonds = None
        else:
            seen = set()
            clean = []
            for a, b in bonds:
                a, b = int(a), int(b)
                if a == b:
                    raise ValueError(f"self-bond on atom {a}")
                if not (0 <= a < z.size and 0 <= b < z.size):
                    raise ValueError(f"bond ({a}, {b}) outside 0..{z.size - 1}")
                pair = (min(a, b), max(a, b))
                if pair in seen:
                    raise ValueError(f"duplicate bond {pair}")
                seen.add(pair)
                clean.append(pair)
            self.bonds = sorted(clean)

    @property
    def n_atoms(self) -> int:
        return int(self.atomic_numbers.size)

    def __eq__(self, other):
        if not isinstance(other, Molecule):
            return NotImplemented
        return (
            np.array_equal(self.atomic_numbers, other.atomic_numbers)
            and np.array_equal(self.coords, other.coords)
            and self.bonds == other.bonds
            and self.targets == other.targets
        )

    def __repr__(self):
        return f"Molecule(n_atoms={self.n_atoms}, key={self.key!r})"


def parse_molecule(text: str, key: str | None = None) -> Molecule:
    """Parse one molecule from extended-xyz text.

    Raises :class:`ParseError` with the offending line number on any
    malformed count, symbol, coordinate or bond, and on a non-finite
    target value or coordinate.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(1, f"expected an atom count, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(1, f"atom count must be positive, got {n}")
    if len(lines) < 2 + n:
        raise ParseError(
            len(lines) + 1, f"body ends before the declared {n} atom lines"
        )

    targets = {}
    for tok in lines[1].split():
        k, sep, v = tok.partition("=")
        if not sep or not k:
            raise ParseError(2, f"expected key=value, got {tok!r}")
        try:
            targets[k] = float(v)
        except ValueError:
            raise ParseError(2, f"value for {k!r} is not a float: {v!r}") from None
        if not math.isfinite(targets[k]):
            raise ParseError(2, f"value for {k!r} must be finite, got {v!r}")

    numbers = np.empty(n, dtype=np.int64)
    coords = np.empty((n, 3), dtype=np.float64)
    for a in range(n):
        ln = 3 + a
        parts = lines[2 + a].split()
        if len(parts) != 4:
            raise ParseError(ln, f"expected 'symbol x y z', got {lines[2 + a]!r}")
        try:
            numbers[a] = elements.atomic_number(parts[0])
        except ValueError as e:
            raise ParseError(ln, str(e)) from None
        for c in range(3):
            try:
                coords[a, c] = float(parts[1 + c])
            except ValueError:
                raise ParseError(
                    ln, f"coordinate is not a float: {parts[1 + c]!r}"
                ) from None
        if not np.all(np.isfinite(coords[a])):
            raise ParseError(ln, "coordinates must be finite")

    bonds = None
    rest = lines[2 + n :]
    pos = 2 + n
    nonblank = [(pos + k + 1, s) for k, s in enumerate(rest) if s.strip()]
    if nonblank:
        ln, head = nonblank[0]
        if head.strip() != "BONDS":
            raise ParseError(ln, f"unexpected trailing content {head.strip()!r}")
        bonds = []
        for ln, s in nonblank[1:]:
            parts = s.split()
            if len(parts) != 2:
                raise ParseError(ln, f"expected 'i j', got {s!r}")
            try:
                bonds.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(ln, f"bond indices must be integers: {s!r}") from None

    try:
        return Molecule(numbers, coords, bonds=bonds, targets=targets, key=key)
    except ValueError as e:
        raise ParseError(1, str(e)) from None


def serialize_molecule(m: Molecule) -> str:
    """Render a molecule back to extended-xyz text (round-trip exact)."""
    out = [str(m.n_atoms)]
    out.append(" ".join(f"{k}={float(v)!r}" for k, v in sorted(m.targets.items())))
    for z, (x, y, w) in zip(m.atomic_numbers, m.coords):
        out.append(
            f"{elements.symbol(int(z))} {float(x)!r} {float(y)!r} {float(w)!r}"
        )
    if m.bonds is not None:
        out.append("BONDS")
        for a, b in m.bonds:
            out.append(f"{a} {b}")
    return "\n".join(out) + "\n"


def load_molecule(path, key: str | None = None) -> Molecule:
    with open(path, encoding="utf-8") as fh:
        return parse_molecule(fh.read(), key=key if key is not None else str(path))


def save_molecule(m: Molecule, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_molecule(m))


@dataclass
class Split:
    """Index lists into ``Dataset.molecules``."""

    train: list[int]
    val: list[int]
    test: list[int]


@dataclass
class Dataset:
    molecules: list[Molecule]
    split: Split | None = None

    def __len__(self):
        return len(self.molecules)

    def subset(self, name: str) -> list[Molecule]:
        if self.split is None:
            raise ValueError("dataset has no split")
        idx = getattr(self.split, name)
        return [self.molecules[i] for i in idx]


def load_manifest(path) -> Dataset:
    """Read a manifest (one molecule path per line, relative to the manifest).

    Blank lines and lines starting with ``#`` are skipped.  Each molecule's
    key is the manifest line, so membership of later splits does not depend
    on line order.
    """
    import os

    base = os.path.dirname(os.path.abspath(path))
    mols = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            p = line if os.path.isabs(line) else os.path.join(base, line)
            mols.append(load_molecule(p, key=line))
    if not mols:
        raise ValueError(f"manifest {path} lists no molecules")
    return Dataset(mols)


# Train, validation and test shares of a split.
DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)


def split_dataset(ds: Dataset, fractions=DEFAULT_FRACTIONS, seed: int = 0) -> Dataset:
    """Deterministic shuffle then contiguous cut into train/val/test.

    When every molecule carries a unique key the shuffle runs over the
    key-sorted order, so reordering the input molecules cannot change split
    membership.
    """
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or not all(0.0 <= x <= 1.0 for x in f) or sum(f) > 1.0 + 1e-12:
        raise ValueError(f"bad split fractions {fractions}")
    n = len(ds.molecules)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    keys = [m.key for m in ds.molecules]
    if all(k is not None for k in keys) and len(set(keys)) == n:
        base_order = sorted(range(n), key=lambda i: keys[i])
    else:
        base_order = list(range(n))
    rng = np.random.default_rng(seed)
    perm = [base_order[i] for i in rng.permutation(n)]
    n_train = int(n * f[0])
    n_val = int(n * f[1])
    n_test = int(n * f[2])
    split = Split(
        train=perm[:n_train],
        val=perm[n_train : n_train + n_val],
        test=perm[n_train + n_val : n_train + n_val + n_test],
    )
    return Dataset(ds.molecules, split=split)


@dataclass
class TargetStats:
    mean: float
    std: float  # population standard deviation
    n: int
    degenerate: bool  # std == 0, normalized metrics are undefined


def target_stats(
    ds: Dataset, prop: str, atomrefs: dict[int, float] | None = None
) -> TargetStats:
    """Mean and population std of a target over the training split, of
    the atom-referenced target when ``atomrefs`` is given."""
    if ds.split is None:
        raise ValueError("dataset has no split; call split_dataset first")
    vals = [subtract_atomrefs(m, prop, atomrefs) for m in ds.subset("train")]
    if not vals:
        raise ValueError("training split is empty")
    arr = np.asarray(vals, dtype=np.float64)
    mean = float(arr.mean())
    std = float(np.sqrt(np.mean((arr - mean) ** 2)))
    return TargetStats(mean=mean, std=std, n=arr.size, degenerate=std == 0.0)


def load_atomrefs(path) -> dict[int, float]:
    """Read per-element reference energies: lines of ``<symbol> <value>``;
    an element given twice is an error naming both lines."""
    refs: dict[int, float] = {}
    lines = {}  # the line each element was given on
    with open(path, encoding="utf-8") as fh:
        for num, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(num, f"expected 'symbol value', got {line!r}")
            try:
                z = elements.atomic_number(parts[0])
                value = float(parts[1])
            except ValueError as e:
                raise ParseError(num, str(e)) from None
            if not math.isfinite(value):
                raise ParseError(num, f"non-finite reference energy {parts[1]!r}")
            if z in lines:
                raise ParseError(
                    num, f"element {parts[0]!r} given twice, lines {lines[z]} and {num}"
                )
            lines[z] = num
            refs[z] = value
    return refs


def subtract_atomrefs(m: Molecule, prop: str, refs: dict[int, float] | None) -> float:
    """Target value minus the summed per-atom reference contributions; the
    plain target when ``refs`` is ``None``."""
    if prop not in m.targets:
        raise KeyError(f"molecule {m.key!r} has no target {prop!r}")
    value = m.targets[prop]
    if refs is not None:
        total = 0.0
        for z in m.atomic_numbers:
            z = int(z)
            if z not in refs:
                raise ValueError(
                    f"no atom reference for element {elements.symbol(z)} "
                    f"in molecule {m.key!r}"
                )
            total += refs[z]
        value -= total
    if not math.isfinite(value):
        raise ValueError(f"non-finite target for {m.key!r}")
    return value
