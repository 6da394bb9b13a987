import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byzgrad.seeds as seeds
from byzgrad.seeds import MAX_SEED, PURPOSE_ADVERSARY, PURPOSE_INIT, CounterStream, philox_raw, substream


def draws(rng, k=8):
    return rng.uniform(-1.0, 1.0, size=k)


class TestSubstream:
    def test_same_coordinates_replay(self):
        a = draws(substream(7, PURPOSE_INIT, 3))
        b = draws(substream(7, PURPOSE_INIT, 3))
        assert np.array_equal(a, b)

    def test_streams_differ_across_every_coordinate(self):
        base = draws(substream(7, PURPOSE_INIT, 3, 1, 2))
        for other in (
            substream(8, PURPOSE_INIT, 3, 1, 2),        # seed
            substream(7, PURPOSE_ADVERSARY, 3, 1, 2),   # purpose
            substream(7, PURPOSE_INIT, 4, 1, 2),        # first counter word
            substream(7, PURPOSE_INIT, 3, 2, 2),        # second
            substream(7, PURPOSE_INIT, 3, 1, 3),        # third
        ):
            assert not np.array_equal(base, draws(other))

    def test_negative_seed_wraps_consistently(self):
        a = draws(substream(-1, PURPOSE_INIT, 0))
        b = draws(substream(-1, PURPOSE_INIT, 0))
        assert np.array_equal(a, b)

    def test_independent_generators_do_not_interact(self):
        first = substream(1, PURPOSE_INIT, 0)
        second = substream(1, PURPOSE_INIT, 1)
        expected_second = draws(substream(1, PURPOSE_INIT, 1))
        draws(first)  # consuming one stream must not shift the other
        assert np.array_equal(draws(second), expected_second)

    def test_adjacent_rounds_overlap(self):
        # numpy steps word 0, which also holds the round: draws 4-7 of round t are draws 0-3 of round t + 1
        assert np.array_equal(substream(7, 2, 3, 5, 1).random(8)[4:], substream(7, 2, 4, 5, 1).random(4))


UNIT = (np.full(8, -1.0), np.full(8, 1.0))  # the bounds `draws` uses


class TestCounterStream:
    def test_matches_substream_exactly(self):
        stream = CounterStream(99, PURPOSE_ADVERSARY, [0, 8, 7], [0, 3, 1], *UNIT, horizon=2**40)
        for counter in [(0, 0, 0), (5, 8, 3), (2**40, 7, 1)]:
            fresh = draws(substream(99, PURPOSE_ADVERSARY, *counter))
            assert np.array_equal(fresh, stream.at(*counter))

    def test_rekeying_resets_fully(self):
        stream = CounterStream(5, PURPOSE_ADVERSARY, [2, 9], [3, 9], *UNIT, horizon=9)
        first = stream.at(1, 2, 3)
        stream.at(9, 9, 9)  # interleave a different site
        assert np.array_equal(first, stream.at(1, 2, 3))


def uniform_at(seed, low, high, t, s, r):
    return substream(seed, PURPOSE_ADVERSARY, t, s, r).uniform(low, high)


class TestPhiloxKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED)),
        purpose=st.sampled_from([PURPOSE_INIT, PURPOSE_ADVERSARY, 3, MAX_SEED]),
        blocks=st.integers(1, 6),
        below_wrap=st.one_of(st.none(), st.integers(0, 7)),
        words=st.lists(st.integers(0, MAX_SEED), min_size=4, max_size=4),
        wrap_above=st.booleans(),
    )
    def test_equals_numpy_philox_bit_for_bit(self, seed, purpose, blocks, below_wrap, words, wrap_above):
        if below_wrap is not None:
            # word 0 at 2**64 - 1 - k, so the blocks carry into word 1 (and on, when it is all ones too)
            words[0] = MAX_SEED - below_wrap
            if wrap_above:
                words[1] = words[2] = MAX_SEED
        counter = np.array(words, dtype=np.uint64)
        key = np.array([seed, purpose], dtype=np.uint64)
        expected = np.random.Philox(counter=counter, key=key).random_raw(4 * blocks)
        got = philox_raw(seed, purpose, np.tile(counter, (blocks, 1)), np.arange(1, blocks + 1))
        assert got.dtype == np.uint64
        assert np.array_equal(got.ravel(), expected)

    def test_blocks_of_many_counters_at_once(self):
        counters = np.array([[t, s, r, 0] for t in (0, 7, MAX_SEED) for s in (1, 9) for r in (0, 4)], dtype=np.uint64)
        got = philox_raw(7, PURPOSE_ADVERSARY, counters, np.full(len(counters), 2))
        for row, counter in zip(got, counters):
            raw = np.random.Philox(counter=counter, key=np.array([7, PURPOSE_ADVERSARY], dtype=np.uint64))
            assert np.array_equal(row, raw.random_raw(8)[4:])


class TestBulkDraws:
    LOW = np.array([-2.0, -2.0, -2.0, -7.0, -7.0, -7.0])  # random_in_box at d = 3, xi = 2, zeta = 7
    HIGH = -LOW

    def stream(self, seed=99, senders=(8, 9), receivers=(0, 1, 2, 3), horizon=700):
        return CounterStream(seed, PURPOSE_ADVERSARY, senders, receivers, self.LOW, self.HIGH, horizon)

    def test_first_and_last_round_of_each_fill(self):
        stream = self.stream()
        per_fill = seeds._FILL_SITES // 8
        for t in (0, per_fill - 1, per_fill, 2 * per_fill - 1):
            for s, r in ((8, 0), (9, 3)):
                assert np.array_equal(stream.at(t, s, r), uniform_at(99, self.LOW, self.HIGH, t, s, r))

    def test_sites_read_out_of_order(self):
        stream = self.stream()
        sites = [(700, 9, 1), (3, 8, 2), (699, 8, 0), (256, 9, 3), (0, 9, 0), (255, 8, 1), (3, 8, 2)]
        for t, s, r in sites:
            assert np.array_equal(stream.at(t, s, r), uniform_at(99, self.LOW, self.HIGH, t, s, r))

    def test_a_later_fill_leaves_earlier_values_alone(self):
        stream = self.stream(horizon=600)
        first = stream.at(0, 8, 0)
        kept = first.copy()
        stream.at(600, 9, 3)
        assert np.array_equal(first, kept)
        with pytest.raises(ValueError):
            first[0] = 0.0  # read-only

    @pytest.mark.parametrize("low, high", [(np.full(1, -3.0), np.full(1, 3.0)), (np.full(9, -0.5), np.full(9, 4.0))])
    def test_draw_counts_that_leave_a_block_partly_unused(self, low, high):
        stream = CounterStream(MAX_SEED, PURPOSE_ADVERSARY, [2], [0, 1], low, high, horizon=5)
        for t in range(6):
            assert np.array_equal(stream.at(t, 2, 1), uniform_at(MAX_SEED, low, high, t, 2, 1))

    def test_fills_stop_at_the_horizon(self):
        stream = self.stream(horizon=10)
        stream.at(4, 8, 0)
        assert stream._table.shape[0] == 7  # rounds 4..10
        with pytest.raises(ValueError, match="outside"):
            stream.at(11, 8, 0)

    def test_one_round_wider_than_a_fill_is_drawn_in_bounded_slices(self, monkeypatch):
        monkeypatch.setattr(seeds, "_FILL_SITES", 3)
        monkeypatch.setattr(seeds, "_SLICE_BLOCKS", 5)
        sizes = []
        real = seeds._philox

        def recording(key, *words):
            assert all(w.dtype == np.uint64 and w.ndim == 1 for w in words)
            sizes.append(len(words[0]))
            return real(key, *words)

        monkeypatch.setattr(seeds, "_philox", recording)
        stream = self.stream(senders=(5, 6, 7), receivers=(0, 1, 2))  # 9 sites of 2 blocks per round
        for t, s, r in ((0, 5, 0), (0, 7, 2), (1, 6, 1)):
            assert np.array_equal(stream.at(t, s, r), uniform_at(99, self.LOW, self.HIGH, t, s, r))
        assert sizes == [5, 5, 5, 3] * 2 and stream._table.shape[0] == 1
