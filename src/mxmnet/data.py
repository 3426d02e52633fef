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

import csv
import math
import os
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
    "read_lines",
    "write_csv",
]


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number, and reads
    ``<path>:<line>: <message>`` when given the file."""

    def __init__(self, line: int, message: str, path=None):
        where = f"line {line}" if path is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.message = message


def _decode(data: bytes, path) -> str:
    """``data`` as UTF-8 text; bytes that are not are a :class:`ParseError`
    naming ``path`` and the line they start on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start].decode("utf-8")
        raise ParseError(len((head + "x").splitlines()), "not UTF-8 text", path) from None


def read_lines(path):
    """Yield ``(line number, stripped text)`` for each line of a text file
    that is neither blank nor a ``#`` comment, lines ending as in text mode.
    Bytes that are not UTF-8 are a :class:`ParseError` naming the file and
    their line, found by reading the file once more."""
    try:
        with open(path, encoding="utf-8") as fh:
            for num, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield num, line
    except UnicodeDecodeError:
        # The decoder reads in blocks, so the line is found in the raw bytes.
        with open(path, "rb") as fh:
            _decode(fh.read(), path)
        raise  # the file changed since, and now decodes


def write_csv(path, header, rows):
    """Write a CSV file: ``header``, then one line per row, floats (numpy's
    too) as ``repr(float(v))``, the shortest text that reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


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
    malformed count, symbol, coordinate or bond, on a non-finite target
    value or coordinate, and on a target given twice.
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
        if k in targets:
            raise ParseError(2, f"target {k!r} given twice")
        try:
            targets[k] = float(v)
        except ValueError:
            raise ParseError(2, f"value for {k!r} is not a float: {v!r}") from None
        if not math.isfinite(targets[k]):
            raise ParseError(2, f"value for {k!r} must be finite, got {v!r}")

    numbers, xyz = [], []
    for a in range(n):
        ln = 3 + a
        parts = lines[2 + a].split()
        if len(parts) != 4:
            raise ParseError(ln, f"expected 'symbol x y z', got {lines[2 + a]!r}")
        try:
            numbers.append(elements.atomic_number(parts[0]))
        except ValueError as e:
            raise ParseError(ln, str(e)) from None
        for tok in parts[1:]:
            try:
                xyz.append(float(tok))
            except ValueError:
                raise ParseError(ln, f"coordinate is not a float: {tok!r}") from None
    coords = np.array(xyz, dtype=np.float64).reshape(n, 3)
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        raise ParseError(3 + int(np.argmin(finite)), "coordinates must be finite")

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
    """Read one molecule file; a :class:`ParseError` names the file."""
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path)
    try:
        return parse_molecule(text, key=key if key is not None else str(path))
    except ParseError as e:
        raise ParseError(e.line, e.message, path) from None


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

    Blank lines and lines starting with ``#`` are skipped; a path may hold
    a ``#`` past its first character.  Each molecule's key is the manifest
    line, so membership of later splits does not depend on line order.  Two
    lines that name the same file (after ``os.path.realpath``) are a
    :class:`ParseError` naming both lines.
    """
    base = os.path.dirname(os.path.abspath(path))
    mols = []
    lines = {}  # the line each molecule file was listed on
    for num, line in read_lines(path):
        p = line if os.path.isabs(line) else os.path.join(base, line)
        first = lines.setdefault(os.path.realpath(p), num)
        if first != num:
            raise ParseError(
                num, f"molecule file {line!r} listed twice, lines {first} and {num}", path
            )
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
    # n * f may land an ulp below the whole count it stands for (100 * 0.29
    # is 28.999999999999996): that count is taken whole, others floored.
    n_train, n_val, n_test = (math.floor(n * x + 1e-9) for x in f)
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
    an element given twice is an error naming both lines.  A
    :class:`ParseError` names the file."""
    refs: dict[int, float] = {}
    lines = {}  # the line each element was given on
    for num, line in read_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(num, f"expected 'symbol value', got {line!r}", path)
        try:
            z = elements.atomic_number(parts[0])
            value = float(parts[1])
        except ValueError as e:
            raise ParseError(num, str(e), path) from None
        if not math.isfinite(value):
            raise ParseError(num, f"non-finite reference energy {parts[1]!r}", path)
        first = lines.setdefault(z, num)
        if first != num:
            raise ParseError(
                num, f"element {parts[0]!r} given twice, lines {first} and {num}", path
            )
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
