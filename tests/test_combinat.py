import math
from itertools import combinations

import pytest

from minorsum import (
    IndexRangeError,
    IndexSet,
    as_partition,
    inv_word,
    is_horizontal_strip,
    lambda_of,
    subsets,
)


def test_index_set_validation():
    s = IndexSet(5, (3, 1, 4))
    assert s.indices == (1, 3, 4)
    assert list(s) == [1, 3, 4]
    assert len(s) == 3
    assert 3 in s and 2 not in s
    assert s[0] == 1
    with pytest.raises(IndexRangeError):
        IndexSet(5, (1, 1))
    with pytest.raises(IndexRangeError):
        IndexSet(5, (0, 2))
    with pytest.raises(IndexRangeError):
        IndexSet(5, (6,))
    with pytest.raises(IndexRangeError):
        IndexSet(5, (True, 2))


def test_index_set_complement():
    s = IndexSet(6, (2, 5))
    assert s.complement().indices == (1, 3, 4, 6)
    assert IndexSet(4, ()).complement().indices == (1, 2, 3, 4)


def test_subsets_lex_order_and_counts():
    got = [s.indices for s in subsets(4, 2)]
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(7):
        for k in range(n + 2):
            assert sum(1 for _ in subsets(n, k)) == math.comb(n, k)
    assert [s.indices for s in subsets(3, 0)] == [()]
    assert list(subsets(2, 3)) == []


def test_inv_word():
    assert inv_word((2, 4), (1, 3)) == 3
    assert inv_word((1, 2), (3, 4)) == 0
    assert inv_word((), (1, 2)) == 0
    assert inv_word((5,), (1, 2, 3)) == 3


def test_lambda_of():
    assert lambda_of((2, 5, 6)) == (3, 3, 1)
    assert lambda_of((1, 2, 3)) == (0, 0, 0)
    assert lambda_of(()) == ()
    with pytest.raises(IndexRangeError):
        lambda_of((3, 3))
    with pytest.raises(IndexRangeError):
        lambda_of((5, 2))


def test_lambda_of_is_injective():
    n = 6
    for k in range(n + 1):
        combos = list(combinations(range(1, n + 1), k))
        lams = {lambda_of(combo) for combo in combos}
        assert len(lams) == len(combos)
        # parts fit a k x (n - k) box
        assert all(len(lam) == k and (not lam or lam[0] <= n - k) for lam in lams)


def test_as_partition():
    assert as_partition((3, 1)) == (3, 1)
    assert as_partition(()) == ()
    assert as_partition((2, 2, 0)) == (2, 2, 0)
    with pytest.raises(IndexRangeError):
        as_partition((1, 3))
    with pytest.raises(IndexRangeError):
        as_partition((1, -1))


def test_is_horizontal_strip():
    assert is_horizontal_strip((3, 1), (2, 1))
    assert is_horizontal_strip((2,), (2,))
    assert is_horizontal_strip((3,), ())
    assert is_horizontal_strip((), ())
    # mu sticks out of lam
    assert not is_horizontal_strip((2, 1), (3,))
    # two cells stacked in one column
    assert not is_horizontal_strip((3, 2), (1,))
    assert is_horizontal_strip((3, 1), (1,))
    assert not is_horizontal_strip((2, 2), ())
