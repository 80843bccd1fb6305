"""Unit tests for the logical-to-physical Mapping."""

import numpy as np
import pytest

from repro.compiler.mapping import Mapping


class TestConstruction:
    def test_trivial(self):
        m = Mapping.trivial(3, 5)
        assert m.as_dict() == {0: 0, 1: 1, 2: 2}
        assert m.free_physical() == (3, 4)

    def test_trivial_too_many_logical(self):
        with pytest.raises(ValueError, match="cannot fit"):
            Mapping.trivial(6, 5)

    def test_random_is_injective(self):
        rng = np.random.default_rng(0)
        m = Mapping.random(5, 8, rng)
        placements = list(m.as_dict().values())
        assert len(set(placements)) == 5
        assert all(0 <= p < 8 for p in placements)

    def test_random_reproducible(self):
        a = Mapping.random(4, 6, np.random.default_rng(42))
        b = Mapping.random(4, 6, np.random.default_rng(42))
        assert a == b


class TestPlacement:
    def test_place_and_lookup(self):
        m = Mapping({}, 4)
        m.place(0, 3)
        assert m.physical(0) == 3
        assert m.logical_at(3) == 0
        assert m.logical_at(0) is None

    def test_double_place_logical_rejected(self):
        m = Mapping({0: 1}, 4)
        with pytest.raises(ValueError, match="already placed"):
            m.place(0, 2)

    def test_occupied_physical_rejected(self):
        m = Mapping({0: 1}, 4)
        with pytest.raises(ValueError, match="occupied"):
            m.place(1, 1)

    def test_out_of_range_rejected(self):
        m = Mapping({}, 2)
        with pytest.raises(ValueError, match="out of range"):
            m.place(0, 5)

    def test_unplaced_lookup_raises(self):
        m = Mapping({}, 2)
        with pytest.raises(KeyError, match="not placed"):
            m.physical(0)

    def test_is_placed(self):
        m = Mapping({1: 0}, 2)
        assert m.is_placed(1)
        assert not m.is_placed(0)


class TestSwap:
    def test_swap_two_occupied(self):
        m = Mapping({0: 0, 1: 1}, 3)
        m.apply_swap(0, 1)
        assert m.physical(0) == 1
        assert m.physical(1) == 0

    def test_swap_with_empty(self):
        m = Mapping({0: 0}, 3)
        m.apply_swap(0, 2)
        assert m.physical(0) == 2
        assert m.logical_at(0) is None

    def test_swap_two_empty_is_noop(self):
        m = Mapping({0: 0}, 3)
        m.apply_swap(1, 2)
        assert m.as_dict() == {0: 0}

    def test_swap_out_of_range(self):
        m = Mapping({}, 2)
        with pytest.raises(ValueError, match="out of range"):
            m.apply_swap(0, 5)

    def test_swap_sequence_is_permutation(self):
        rng = np.random.default_rng(1)
        m = Mapping.trivial(4, 6)
        for _ in range(50):
            a, b = rng.choice(6, size=2, replace=False)
            m.apply_swap(int(a), int(b))
        values = list(m.as_dict().values())
        assert len(set(values)) == 4  # still injective


class TestQueries:
    def test_occupied_and_free(self):
        m = Mapping({0: 2, 1: 5}, 6)
        assert m.occupied_physical() == (2, 5)
        assert m.free_physical() == (0, 1, 3, 4)

    def test_logical_qubits(self):
        m = Mapping({3: 0, 1: 2}, 4)
        assert m.logical_qubits() == (1, 3)

    def test_physical_pair(self):
        m = Mapping({0: 4, 1: 2}, 5)
        assert m.physical_pair(0, 1) == (4, 2)

    def test_homes_is_a_live_read_only_view(self):
        m = Mapping({0: 4, 1: 2}, 5)
        homes = m.homes
        assert dict(homes) == {0: 4, 1: 2}
        m.apply_swap(4, 3)
        assert homes[0] == 3
        with pytest.raises(TypeError):
            homes[0] = 1
        with pytest.raises(KeyError):
            homes[2]

    def test_copy_independent(self):
        m = Mapping({0: 0}, 3)
        dup = m.copy()
        dup.apply_swap(0, 1)
        assert m.physical(0) == 0
        assert dup.physical(0) == 1

    def test_len_and_repr(self):
        m = Mapping({0: 1, 1: 2}, 4)
        assert len(m) == 2
        assert "q0->p1" in repr(m)

    def test_equality(self):
        assert Mapping({0: 1}, 3) == Mapping({0: 1}, 3)
        assert Mapping({0: 1}, 3) != Mapping({0: 2}, 3)
        assert Mapping({0: 1}, 3) != Mapping({0: 1}, 4)
