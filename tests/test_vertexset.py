from hypothesis import given
from hypothesis import strategies as st
import pytest

from totaldom import OutOfRange, VertexSet
from totaldom.vertexset import members


def test_construction_and_membership():
    s = VertexSet.from_members(8, [1, 3, 5])
    assert 1 in s and 3 in s and 5 in s
    assert 0 not in s and 7 not in s
    assert list(s) == [1, 3, 5]
    assert len(s) == 3


def test_full_and_empty():
    assert list(VertexSet.full(4)) == [0, 1, 2, 3]
    assert len(VertexSet(6)) == 0
    assert not VertexSet(6)


def test_members_of_a_mask_of_any_width():
    # the labeled scan walks bitmaps of 2^14 bits
    assert list(members(1 << 16383 | 1 << 64 | 5)) == [0, 2, 64, 16383]
    assert list(members(0)) == []


def test_out_of_range_member():
    with pytest.raises(OutOfRange):
        VertexSet.from_members(4, [4])
    with pytest.raises(OutOfRange):
        VertexSet(4, 1 << 4)
    with pytest.raises(OutOfRange):
        VertexSet(65)


def test_capacity_mismatch():
    with pytest.raises(ValueError):
        VertexSet(4) | VertexSet(5)


def test_operators():
    a = VertexSet.from_members(5, [0, 1])
    b = VertexSet.from_members(5, [1, 2])
    assert list(a | b) == [0, 1, 2]
    assert list(a & b) == [1]
    assert list(a - b) == [0]
    assert list(~a) == [2, 3, 4]
    assert a.is_subset_of(a | b)
    assert not (a | b).is_subset_of(a)


masks = st.integers(0, (1 << 10) - 1)


@given(masks, masks)
def test_union_intersection_absorption(ma, mb):
    a, b = VertexSet(10, ma), VertexSet(10, mb)
    assert (a | b) & a == a


@given(masks)
def test_double_complement_identity(ma):
    a = VertexSet(10, ma)
    assert ~~a == a


@given(masks)
def test_popcount_matches_iteration(ma):
    a = VertexSet(10, ma)
    assert len(a) == len(list(a))
    assert all(v in a for v in a)
