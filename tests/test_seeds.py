import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzgrad.seeds import MAX_SEED, PURPOSE_ADVERSARY, PURPOSE_INIT, PURPOSE_TEMPLATE, CounterStream, Substreams


def fresh_raw(seed, purpose, site, size):
    """The raw words of a Philox constructed at `site`: what placing the shared one there must give."""
    counter = np.array([0, *(w & MAX_SEED for w in site)] + [0] * (3 - len(site)), dtype=np.uint64)
    key = np.array([seed & MAX_SEED, purpose & MAX_SEED], dtype=np.uint64)
    return np.random.Philox(counter=counter, key=key).random_raw(size)


def fresh_uniform(seed, purpose, site, low, high, size):
    return low + (high - low) * ((fresh_raw(seed, purpose, site, size) >> np.uint64(11)) * 2.0**-53)


def draws(seed, purpose, *site):
    return Substreams(seed, purpose).uniform([site], -1.0, 1.0, 8)[0]


class TestSubstream:
    def test_same_coordinates_replay(self):
        assert np.array_equal(draws(7, PURPOSE_INIT, 3), draws(7, PURPOSE_INIT, 3))

    def test_streams_differ_across_every_coordinate(self):
        base = draws(7, PURPOSE_INIT, 3, 1, 2)
        for other in (
            draws(8, PURPOSE_INIT, 3, 1, 2),        # seed
            draws(7, PURPOSE_ADVERSARY, 3, 1, 2),   # purpose
            draws(7, PURPOSE_INIT, 4, 1, 2),        # first site coordinate
            draws(7, PURPOSE_INIT, 3, 2, 2),        # second
            draws(7, PURPOSE_INIT, 3, 1, 3),        # third
            draws(7, PURPOSE_INIT, 3, 1),           # fewer coordinates
        ):
            assert not np.array_equal(base, other)

    def test_negative_seed_wraps_consistently(self):
        assert np.array_equal(draws(-1, PURPOSE_INIT, 0), draws(MAX_SEED, PURPOSE_INIT, 0))

    def test_independent_generators_do_not_interact(self):
        substreams = Substreams(1, PURPOSE_INIT)
        substreams.uniform([(0,)], -1.0, 1.0, 9)  # a partly used block must not carry over
        assert np.array_equal(substreams.uniform([(1,)], -1.0, 1.0, 8)[0], draws(1, PURPOSE_INIT, 1))

    def test_one_row_per_site(self):
        rows = Substreams(7, PURPOSE_INIT).uniform([(2,), (0,), (2,)], -3.0, 3.0, (2, 5))
        assert rows.shape == (3, 2, 5)
        assert np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows[1], fresh_uniform(7, PURPOSE_INIT, (0,), -3.0, 3.0, (2, 5)))

    def test_neighbouring_sites_share_no_block(self):
        # adversary sites (t, s, r), 64 draws each: row r of the (t, s) table
        stream = CounterStream(7, PURPOSE_ADVERSARY, [4, 5, 6], 10, np.zeros(64), np.ones(64))
        base = stream.at(3, 5, 1).copy()
        for neighbour in ((4, 5, 1), (2, 5, 1), (3, 6, 1), (3, 4, 1), (3, 5, 2), (3, 5, 0)):
            assert np.intersect1d(base, stream.at(*neighbour)).size == 0, neighbour
        # raw words at sites of three coordinates and fewer
        substreams = Substreams(7, PURPOSE_ADVERSARY)
        base = substreams.raw((3, 5, 1), 64)
        for neighbour in ((4, 5, 1), (3, 6, 1), (3, 5, 2), (3, 5), (3,), ()):
            assert np.intersect1d(base, substreams.raw(neighbour, 64)).size == 0, neighbour
        # the d = 12 start points of agents 0 and 1
        start = Substreams(7, PURPOSE_INIT).uniform([(0,), (1,)], -10.0, 10.0, 12)
        assert np.intersect1d(start[0], start[1]).size == 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED)),
        purpose=st.sampled_from([PURPOSE_INIT, PURPOSE_ADVERSARY, PURPOSE_TEMPLATE, MAX_SEED]),
        site=st.lists(st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED)), max_size=3),
        words=st.integers(1, 13),
    )
    def test_placing_equals_a_fresh_philox(self, seed, purpose, site, words):
        substreams = Substreams(seed, purpose)
        substreams.raw((1, 2, 3), 5)  # placed elsewhere first, mid-block
        assert np.array_equal(substreams.raw(tuple(site), words), fresh_raw(seed, purpose, site, words))

    def test_a_site_has_at_most_three_coordinates(self):
        with pytest.raises(ValueError, match="at most three"):
            Substreams(7, PURPOSE_INIT).raw((1, 2, 3, 4), 4)

    def test_pinned_draws(self):
        # literals: they hold whatever numpy version runs them, since NEP 19 fixes random_raw
        assert Substreams(7, PURPOSE_INIT).uniform([(1,)], -10.0, 10.0, 8)[0].tolist() == [
            0.11723609123678358, 8.54319461078013, -6.4542779566250825, 9.83895582829932,
            -5.144009996735404, -1.7155696951311796, -4.2169560362571445, 3.152682969547003,
        ]
        stream = CounterStream(7, PURPOSE_ADVERSARY, [8], 10, np.full(8, -1.0), np.full(8, 1.0))
        assert stream.at(3, 8, 2).tolist() == [
            0.401869446996149, 0.9366969414199287, 0.4755631388708801, 0.7697452124575401,
            -0.3219058949453657, 0.036364135714759716, 0.23052219610875313, 0.29669937434550975,
        ]


UNIT = (np.full(8, -1.0), np.full(8, 1.0))


def site_values(seed, n, low, high, t, s, r):
    """Site (t, s, r): row r of the (n, k) draw at (t, s)."""
    return fresh_uniform(seed, PURPOSE_ADVERSARY, (t, s), low, high, (n, len(low)))[r]


class TestCounterStream:
    def test_matches_substream_exactly(self):
        stream = CounterStream(99, PURPOSE_ADVERSARY, [0, 8, 7, 9], 10, *UNIT)
        for t, s, r in [(0, 0, 0), (5, 8, 3), (2**40, 7, 1), (MAX_SEED, 9, 9)]:
            assert np.array_equal(stream.at(t, s, r), site_values(99, 10, *UNIT, t, s, r))

    def test_rekeying_resets_fully(self):
        stream = CounterStream(5, PURPOSE_ADVERSARY, [2, 9], 10, *UNIT)
        first = stream.at(1, 2, 3).copy()
        stream.at(9, 9, 9)  # interleave a different site
        assert np.array_equal(first, stream.at(1, 2, 3))


class TestBulkDraws:
    LOW = np.array([-2.0, -2.0, -2.0, -7.0, -7.0, -7.0])  # random_in_box at d = 3, xi = 2, zeta = 7
    HIGH = -LOW

    def test_sites_read_out_of_order(self):
        stream = CounterStream(99, PURPOSE_ADVERSARY, [8, 9], 10, self.LOW, self.HIGH)
        sites = [(700, 9, 1), (3, 8, 2), (699, 8, 0), (256, 9, 3), (0, 9, 0), (255, 8, 1), (3, 8, 2), (3, 9, 2)]
        for t, s, r in sites:
            assert np.array_equal(stream.at(t, s, r), site_values(99, 10, self.LOW, self.HIGH, t, s, r))

    def test_a_later_table_leaves_earlier_values_alone(self):
        stream = CounterStream(99, PURPOSE_ADVERSARY, [8, 9], 10, self.LOW, self.HIGH)
        first = stream.at(0, 8, 0)
        kept = first.copy()
        stream.at(600, 9, 3)
        assert np.array_equal(first, kept)
        with pytest.raises(ValueError):
            first[0] = 0.0  # read-only

    @pytest.mark.parametrize("low, high", [(np.full(1, -3.0), np.full(1, 3.0)), (np.full(9, -0.5), np.full(9, 4.0))])
    def test_draw_counts_that_leave_a_block_partly_unused(self, low, high):
        stream = CounterStream(MAX_SEED, PURPOSE_ADVERSARY, [2], 3, low, high)
        for t in range(6):
            for r in range(3):
                assert np.array_equal(stream.at(t, 2, r), site_values(MAX_SEED, 3, low, high, t, 2, r))
