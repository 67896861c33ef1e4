"""Tests for Algorithms 2 and 3 (statistics collection, tile allocation)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocation_oracle import allocate_tiles_numpy, brute_force_allocation

from repro.runtime import (
    SchedulingError,
    StatisticsCollector,
    allocate_tiles,
)


class TestStatisticsCollector:
    def test_initial_equal(self):
        s = StatisticsCollector(4, initial=1.0)
        np.testing.assert_allclose(s.rates(), np.ones(4))

    def test_ewma_update_formula(self):
        """Algorithm 2 line 6: s_k = (1-γ)s_k + γ n_k."""
        s = StatisticsCollector(2, gamma=0.9, initial=1.0)
        s.update([8, 4])
        np.testing.assert_allclose(s.rates(), [0.1 + 7.2, 0.1 + 3.6])

    def test_converges_to_steady_counts(self):
        s = StatisticsCollector(2, gamma=0.9, initial=1.0)
        for _ in range(20):
            s.update([8, 2])
        np.testing.assert_allclose(s.rates(), [8, 2], atol=1e-3)

    def test_failed_node_decays_to_zero(self):
        """§6.3: if node k fails, s_k becomes ~0 and gets no tiles."""
        s = StatisticsCollector(2, gamma=0.9, initial=8.0)
        for _ in range(10):
            s.update([8, 0])
        rates = s.rates()
        assert rates[1] < 1e-8
        x = allocate_tiles(16, rates)
        assert x[1] == 0 and x[0] == 16

    def test_rates_is_copy(self):
        s = StatisticsCollector(2)
        s.rates()[0] = 99
        assert s.rates()[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StatisticsCollector(0)
        with pytest.raises(ValueError):
            StatisticsCollector(2, gamma=0.0)
        with pytest.raises(ValueError):
            StatisticsCollector(2, initial=-1)
        s = StatisticsCollector(2)
        with pytest.raises(ValueError):
            s.update([1, 2, 3])
        with pytest.raises(ValueError):
            s.update([1, -2])


class TestAllocateTiles:
    def test_even_split_on_equal_rates(self):
        x = allocate_tiles(64, np.ones(8))
        np.testing.assert_array_equal(x, np.full(8, 8))

    def test_proportional_to_rates(self):
        x = allocate_tiles(12, [2.0, 1.0])
        assert tuple(x) == (8, 4)

    def test_sum_constraint(self):
        x = allocate_tiles(17, [3.0, 1.0, 2.0])
        assert x.sum() == 17

    def test_figure15_allocation_shape(self):
        """§7.3: after throttling nodes 5-8 (-55%, -55%, -76%, -76%), the
        allocation becomes 12,12,12,12,5,5,3,3."""
        rates = np.array([8, 8, 8, 8, 8 * 0.45, 8 * 0.45, 8 * 0.24, 8 * 0.24])
        x = allocate_tiles(64, rates)
        assert x.sum() == 64
        assert all(x[i] == x[0] for i in range(4))
        assert x[0] in (11, 12, 13)
        assert x[4] in (4, 5, 6) and x[6] in (2, 3, 4)
        assert x[0] > x[4] > x[6]

    def test_storage_constraint(self):
        """Eq. (1): M x_k <= H_k caps a node's tiles."""
        x = allocate_tiles(10, [1.0, 1.0], tile_bits=100, storage_bits=[200, 1e9])
        assert x[0] <= 2 and x.sum() == 10

    def test_all_storage_exhausted_raises(self):
        with pytest.raises(SchedulingError):
            allocate_tiles(10, [1.0, 1.0], tile_bits=100, storage_bits=[200, 200])

    def test_all_dead_raises(self):
        with pytest.raises(SchedulingError):
            allocate_tiles(4, [0.0, 0.0])

    def test_zero_tiles(self):
        np.testing.assert_array_equal(allocate_tiles(0, [1.0, 1.0]), [0, 0])

    def test_random_tie_break(self):
        rng = np.random.default_rng(0)
        x = allocate_tiles(1, np.ones(4), rng=rng)
        assert x.sum() == 1

    def test_deterministic_without_rng(self):
        a = allocate_tiles(7, [1.0, 1.0, 1.0])
        b = allocate_tiles(7, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_tiles(-1, [1.0])
        with pytest.raises(ValueError):
            allocate_tiles(1, [1.0], tile_bits=1, storage_bits=[1, 2])

    @settings(max_examples=40, deadline=None)
    @given(
        num_tiles=st.integers(1, 12),
        rates=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
    )
    def test_greedy_matches_brute_force_makespan(self, num_tiles, rates):
        """Greedy list scheduling is optimal for unit jobs on uniform
        machines — verify the min-max objective against brute force."""
        rates = np.asarray(rates)
        greedy = allocate_tiles(num_tiles, rates)
        exact = brute_force_allocation(num_tiles, rates)
        greedy_cost = max(greedy[i] / rates[i] for i in range(len(rates)))
        exact_cost = max(exact[i] / rates[i] for i in range(len(rates)))
        assert greedy_cost == pytest.approx(exact_cost, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        num_tiles=st.integers(0, 50),
        rates=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
    )
    def test_allocation_invariants_property(self, num_tiles, rates):
        x = allocate_tiles(num_tiles, np.asarray(rates))
        assert x.sum() == num_tiles
        assert (x >= 0).all()


EPSILON = 1e-9


@st.composite
def allocation_cases(draw):
    """Rates with dead nodes (0, at or just below ``epsilon``), exact ties
    (small repeated values), near-ties on either side of the ``1e-12``
    tie tolerance, optional storage caps (some infeasible), and an optional
    seeded tie-breaking generator."""
    k = draw(st.integers(1, 9))
    rate = st.one_of(
        st.sampled_from([0.0, EPSILON, EPSILON / 2, 0.5, 1.0, 1.0, 1.0 + 1e-13, 1.0 - 1e-9, 2.0, 3.0]),
        st.floats(1e-6, 100.0),
    )
    rates = draw(st.lists(rate, min_size=k, max_size=k))
    tile_bits = draw(st.sampled_from([0.0, 1.0, 2.5]))
    storage = None
    if draw(st.booleans()):
        cap = st.one_of(st.just(float("inf")), st.floats(0.0, 60.0))
        storage = draw(st.lists(cap, min_size=k, max_size=k))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return draw(st.integers(0, 128)), rates, tile_bits, storage, seed


class TestAllocateTilesOracle:
    """The scalar Algorithm 3 is bit-for-bit the NumPy formulation."""

    @settings(max_examples=300, deadline=None)
    @given(case=allocation_cases())
    # Eight equal rates: every tile is a tie, so every draw counts.
    @example(case=(61, [1.0] * 8, 0.0, None, 7))
    # A ratio 1e-9 above the best is not a tie; 1e-13 above it is.
    @example(case=(3, [1.0 - 1e-9, 1.0], 0.0, None, None))
    @example(case=(3, [1.0 + 1e-13, 1.0], 0.0, None, None))
    # Storage for 3 tiles of the 5.
    @example(case=(5, [1.0, 2.0], 1.0, [1.0, 2.5], None))
    def test_matches_numpy_oracle(self, case):
        num_tiles, rates, tile_bits, storage, seed = case
        rng_a = None if seed is None else np.random.default_rng(seed)
        rng_b = None if seed is None else np.random.default_rng(seed)
        try:
            expected = allocate_tiles_numpy(num_tiles, rates, tile_bits, storage, rng_a)
        except SchedulingError:
            with pytest.raises(SchedulingError):
                allocate_tiles(num_tiles, rates, tile_bits, storage, rng_b)
            return
        got = allocate_tiles(num_tiles, rates, tile_bits, storage, rng_b)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        if seed is not None:
            assert rng_b.bit_generator.state == rng_a.bit_generator.state
