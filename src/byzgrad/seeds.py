"""Counter-based random substreams.

All randomness in a run is derived from one root seed. Every draw is
numpy's Philox4x64-10 bit generator keyed by (seed, purpose) and placed
at one site: the site's coordinates, at most three, fill counter words
1-3, and word 0 starts at zero. Philox steps word 0 as its block counter,
so the blocks of two sites are different counters (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): no two sites
share a block, drawing more at one site cannot shift what another sees,
and a value is a pure function of (seed, purpose, site, position).

A value in [low, high) is low + (high - low) * u, with u the top 53 bits
of one `random_raw` word times 2^-53, as numpy's own uniform computes it.
NEP 19 keeps `random_raw` stable across numpy versions, which it does
not promise for `Generator` methods.
"""

import numpy as np

# Purpose codes keying the Philox streams. Never renumber: changing a code
# changes every trajectory derived from existing seeds.
PURPOSE_INIT = 1
PURPOSE_ADVERSARY = 2
PURPOSE_TEMPLATE = 3

_MASK64 = (1 << 64) - 1
MAX_SEED = _MASK64  # the Philox key holds 64 bits; a root seed outside 0..MAX_SEED would alias one inside
_SHIFT11 = np.uint64(11)  # keeps the top 53 bits, as numpy's next_double does
_UNIT = 1.0 / 9007199254740992.0  # 2^-53


class Substreams:
    """The substreams of one (seed, purpose): one Philox, placed at a site per draw.

    Placing the generator at a site resets its state to the site's
    counter with an empty block buffer, which costs less than
    constructing a generator, and draws exactly what a fresh
    `Philox(counter=[0, *site], key=[seed, purpose])` would.
    """

    def __init__(self, seed: int, purpose: int):
        self._philox = np.random.Philox(key=np.array([seed & _MASK64, purpose & _MASK64], dtype=np.uint64))
        self._state = self._philox.state  # a fresh state, reused: only its counter words 1-3 change
        self._counter = self._state["state"]["counter"]

    def raw(self, site: tuple[int, ...], size) -> np.ndarray:
        """The first raw 64-bit words at `site`, in an array of shape `size`."""
        if len(site) > 3:
            raise ValueError(f"a site has at most three coordinates, got {len(site)}")
        self._counter[1:] = [w & _MASK64 for w in site] + [0] * (3 - len(site))
        self._philox.state = self._state
        return self._philox.random_raw(size)

    def uniform(self, sites, low, high, size) -> np.ndarray:
        """Values uniform in [low, high), shape (len(sites), *size): row i is drawn at `sites[i]`.

        The bounds broadcast against each row.
        """
        raw = np.array([self.raw(site, size) for site in sites], dtype=np.uint64)
        return low + (high - low) * ((raw >> _SHIFT11) * _UNIT)


class CounterStream:
    """A run's adversarial draws: k values per (round, sender, receiver) site.

    Site (t, s, r) is row r of the (n, k) uniform draw at site (t, s), with
    per-draw bounds `low` and `high` (arrays of length k). Its rows cover
    every agent id 0..n-1, so a message's values are a pure function of
    (seed, t, s, r), whoever else is faulty. `at(t, s, r)` returns the row,
    read-only, for s among `senders`. The tables of all senders of round t
    are drawn together when the round is first asked for after another,
    and a later round leaves rows already returned as they are.
    """

    def __init__(self, seed: int, purpose: int, senders, n: int, low, high):
        self._substreams = Substreams(seed, purpose)
        self._senders = {s: a for a, s in enumerate(senders)}
        self._low = np.asarray(low, dtype=np.float64).reshape(-1)
        self._high = np.asarray(high, dtype=np.float64).reshape(-1)
        self._shape = (n, self._low.size)
        self._round = self._table = None

    def at(self, round_: int, sender: int, receiver: int) -> np.ndarray:
        if round_ != self._round:
            sites = [(round_, s) for s in self._senders]
            self._table = self._substreams.uniform(sites, self._low, self._high, self._shape)
            self._table.flags.writeable = False
            self._round = round_
        return self._table[self._senders[sender], receiver]
