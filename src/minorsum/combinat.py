"""Enumeration primitives: index sets, subsets, inversions, partitions.

All index values are 1-based, matching the usual determinant/Pfaffian
notation.  Enumerators are lazy generators with a deterministic order so
that seeded runs and reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import IndexRangeError


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of 1-based indices inside [1, ambient]."""

    ambient: int
    indices: tuple

    def __init__(self, ambient: int, indices: Iterable[int]):
        idx = tuple(sorted(indices))
        if any(not isinstance(i, int) or isinstance(i, bool) for i in idx):
            raise IndexRangeError(f"indices must be ints: {idx}")
        for a, b in zip(idx, idx[1:]):
            if a == b:
                raise IndexRangeError(f"duplicate index {a}")
        if idx and (idx[0] < 1 or idx[-1] > ambient):
            raise IndexRangeError(f"indices {idx} outside [1, {ambient}]")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        return self.indices[k]

    def __contains__(self, v):
        return v in self.indices

    def complement(self) -> "IndexSet":
        inside = set(self.indices)
        return IndexSet(self.ambient, (i for i in range(1, self.ambient + 1) if i not in inside))

    def __repr__(self):
        return f"IndexSet({self.ambient}, {self.indices})"


def subsets(n: int, k: int) -> Iterator[IndexSet]:
    """All k-subsets of {1..n} in lexicographic order, lazily."""
    if k < 0 or k > n:
        return
    for combo in combinations(range(1, n + 1), k):
        yield IndexSet(n, combo)


def inv_word(J: Iterable[int], K: Iterable[int]) -> int:
    """Inversions of the concatenated word JK: pairs (j, k) with j in J,
    k in K and j > k."""
    K = tuple(K)
    return sum(1 for j in J for k in K if j > k)


def lambda_of(I: Sequence[int]) -> tuple:
    """Partition (i_k - k, ..., i_2 - 2, i_1 - 1) of a strictly increasing
    index tuple, largest part first."""
    idx = tuple(I)
    k = len(idx)
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise IndexRangeError(f"index tuple {idx} not strictly increasing")
    return tuple(idx[k - 1 - a] - (k - a) for a in range(k))


def as_partition(parts: Sequence[int]) -> tuple:
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise IndexRangeError(f"parts {parts} not weakly decreasing")
    if parts and parts[-1] < 0:
        raise IndexRangeError(f"negative part in {parts}")
    return parts


def is_horizontal_strip(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """True when lam/mu is a horizontal strip:
    lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...  (zero padding on the right)."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    size = max(len(lam), len(mu))
    lam = lam + (0,) * (size - len(lam))
    mu = mu + (0,) * (size - len(mu))
    for t in range(size):
        if lam[t] < mu[t]:
            return False
        if t + 1 < size and mu[t] < lam[t + 1]:
            return False
    return True
