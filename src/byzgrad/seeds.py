"""Counter-based random substreams.

All randomness in a run is derived from one root seed. Each consumer gets
its own Philox stream keyed by (seed, purpose) with the counter set from
its coordinates (round, sender, receiver), so streams never interact:
drawing more values in one place cannot shift what any other place sees,
and a message is a pure function of (seed, round, sender, receiver).

`substream` is numpy's Philox generator keyed at one site. Philox4x64-10
is counter-based, so any block of any stream can be computed on its own
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
`philox_raw` computes the blocks of many counters at once on numpy
uint64 arrays, bit for bit what numpy's Philox gives, and `CounterStream`
uses it to draw the adversary's values for a chunk of rounds in bulk.
"""

import math

import numpy as np

# Purpose codes keying the Philox streams. Never renumber: changing a code
# changes every trajectory derived from existing seeds.
PURPOSE_INIT = 1
PURPOSE_ADVERSARY = 2
PURPOSE_TEMPLATE = 3

_MASK64 = (1 << 64) - 1
MAX_SEED = _MASK64  # the Philox key holds 64 bits; a root seed outside 0..MAX_SEED would alias one inside

# Philox4x64 multipliers and Weyl key increments (Salmon et al., table 2)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)  # keeps the top 53 bits, as numpy's next_double does

_FILL_SITES = 2048  # sites per fill, unless one round alone has more
_SLICE_BLOCKS = 2048  # Philox blocks per kernel call; bounds its temporaries


def _counter_words(counter: tuple[int, ...]) -> np.ndarray:
    if len(counter) > 4:
        raise ValueError("at most four counter words are supported")
    words = [w & _MASK64 for w in counter] + [0] * (4 - len(counter))
    return np.asarray(words, dtype=np.uint64)


def substream(seed: int, purpose: int, *counter: int) -> np.random.Generator:
    """Return an independent generator for (seed, purpose, *counter).

    The same arguments always yield an identical stream.
    """
    key = np.asarray([seed & _MASK64, purpose & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=_counter_words(counter), key=key))


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi = m_lo * x_hi
    # at most 3 (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1: no term of the middle column wraps
    middle = ((m_lo * x_lo) >> _SHIFT32) + (lo_hi & _LOW32) + m_hi * x_lo
    return m_hi * x_hi + (lo_hi >> _SHIFT32) + (middle >> _SHIFT32)


def _philox(key: tuple[int, int], c0, c1, c2, c3) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 of the counters (c0, c1, c2, c3), four 1-D uint64 arrays, under `key`."""
    k0, k1 = key
    m0, m1 = (np.uint64(m) for m in _PHILOX_M)
    for _ in range(_PHILOX_ROUNDS):
        # uint64 arrays wrap silently; only numpy scalars would warn
        c0, c1, c2, c3 = (
            _mulhi(_PHILOX_M[1], c2) ^ c1 ^ np.uint64(k0),
            c2 * m1,
            _mulhi(_PHILOX_M[0], c0) ^ c3 ^ np.uint64(k1),
            c0 * m0,
        )
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return c0, c1, c2, c3


def _advance(words, steps: np.ndarray) -> list[np.ndarray]:
    """The counters `words` plus `steps`, carrying from each word into the next."""
    first = words[0] + steps
    carry = (first < steps).astype(np.uint64)
    out = [first]
    for word in words[1:]:
        word = word + carry
        carry &= (word == 0).astype(np.uint64)
        out.append(word)
    return out


def philox_raw(seed: int, purpose: int, counters: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The raw Philox blocks of many counters, as numpy's keyed `Philox` gives them.

    `counters` is an (m, 4) uint64 array of stream counters and `steps`
    an (m,) uint64 array of block numbers, each at least 1. Row i of the
    (m, 4) result is block `steps[i]` of numpy's Philox keyed at (seed,
    purpose) with counter `counters[i]`, that is words 4 (steps[i] - 1)
    to 4 steps[i] - 1 of its `random_raw`: numpy adds one to the counter,
    carrying from word 0 upward, before each block.
    """
    counters = np.asarray(counters, dtype=np.uint64).reshape(-1, 4)
    steps = np.asarray(steps, dtype=np.uint64).reshape(-1)
    words = _advance(tuple(counters.T), steps)
    return np.stack(_philox((seed & _MASK64, purpose & _MASK64), *words), axis=1)


class CounterStream:
    """One run's uniform draws over rounds x senders x receivers, made in bulk.

    Each site (t, s, r), for t in 0..horizon, s in `senders` and r in
    `receivers`, draws k values with per-draw bounds `low` and `high`
    (arrays of length k). `at(t, s, r)` returns them, equal bit for bit to
    `substream(seed, purpose, t, s, r).uniform(low, high)`.

    The draws are computed a fill at a time: from the round asked for,
    as many whole rounds as fit in `_FILL_SITES` sites (at least one,
    never past the horizon). A fill holds at most max(one round,
    `_FILL_SITES`) sites of k values rounded up to a multiple of 4, and
    the kernel's temporaries are bounded by `_SLICE_BLOCKS` blocks
    whatever n, d and the horizon are. `at` returns a read-only view of
    its fill, which a later fill leaves as it is.
    """

    def __init__(self, seed: int, purpose: int, senders, receivers, low, high, horizon: int):
        self.key = (seed & _MASK64, purpose & _MASK64)
        self.horizon = horizon
        self._receivers = {r: b for b, r in enumerate(receivers)}
        # a site's row within its round is its sender's offset plus its receiver's index
        self._senders = {s: a * len(self._receivers) for a, s in enumerate(senders)}
        self._sender_words = np.fromiter(self._senders, dtype=np.uint64, count=len(self._senders))
        self._receiver_words = np.fromiter(self._receivers, dtype=np.uint64, count=len(self._receivers))
        low = np.asarray(low, dtype=np.float64).reshape(-1)
        span = np.asarray(high, dtype=np.float64).reshape(-1) - low
        self._k = low.size
        width = 4 * math.ceil(self._k / 4)  # draws of whole Philox blocks
        self._low = np.zeros(width)
        self._span = np.zeros(width)
        self._low[: self._k] = low
        self._span[: self._k] = span
        self._width = width
        self._per_round = len(self._senders) * len(self._receivers)
        self._first = 0
        self._flat = np.empty((0, self._k))  # the fill, one row of k draws per site

    def at(self, round_: int, sender: int, receiver: int) -> np.ndarray:
        row = (round_ - self._first) * self._per_round + self._senders[sender] + self._receivers[receiver]
        if not 0 <= row < len(self._flat):
            self._fill(round_)
            row = self._senders[sender] + self._receivers[receiver]
        return self._flat[row]

    def _fill(self, first: int) -> None:
        if not 0 <= first <= self.horizon:
            raise ValueError(f"round {first} lies outside 0..{self.horizon}")
        receivers, width, per_round = len(self._receivers), self._width, self._per_round
        rounds = min(max(1, _FILL_SITES // max(1, per_round)), self.horizon + 1 - first)
        blocks = width // 4
        table = np.empty((rounds * per_round * blocks, 4))
        for start in range(0, len(table), _SLICE_BLOCKS):
            # block q is block j of site (first + t, senders[a], receivers[b])
            site, j = np.divmod(np.arange(start, min(start + _SLICE_BLOCKS, len(table))), blocks)
            t, rest = np.divmod(site, per_round)
            a, b = np.divmod(rest, receivers)
            counters = np.zeros((len(site), 4), dtype=np.uint64)
            counters[:, 0] = t + first
            counters[:, 1] = self._sender_words[a]
            counters[:, 2] = self._receiver_words[b]
            raw = philox_raw(*self.key, counters, j + 1)
            unit = (raw >> _SHIFT11) * (1.0 / 9007199254740992.0)
            draw = 4 * j[:, None] + np.arange(4)
            # one multiply, then one add, as numpy's uniform does
            table[start : start + len(raw)] = self._low[draw] + self._span[draw] * unit
        table.flags.writeable = False
        self._flat = table.reshape(rounds * per_round, width)[:, : self._k]
        self._first = first
