"""Counter-based random substreams.

All randomness in a run is derived from one root seed. Each consumer gets
its own Philox stream keyed by (seed, purpose) with the counter set from
its coordinates (round, sender, receiver), so streams never interact:
drawing more values in one place cannot shift what any other place sees,
and a message is a pure function of (seed, round, sender, receiver).
"""

import numpy as np

# Purpose codes keying the Philox streams. Never renumber: changing a code
# changes every trajectory derived from existing seeds.
PURPOSE_INIT = 1
PURPOSE_ADVERSARY = 2
PURPOSE_TEMPLATE = 3

_MASK64 = (1 << 64) - 1
MAX_SEED = _MASK64  # the Philox key holds 64 bits; a root seed outside 0..MAX_SEED would alias one inside


def _counter_words(counter: tuple[int, ...]) -> np.ndarray:
    if len(counter) > 4:
        raise ValueError("at most four counter words are supported")
    words = [w & _MASK64 for w in counter] + [0] * (4 - len(counter))
    return np.asarray(words, dtype=np.uint64)


def _keyed_state(seed: int, purpose: int, counter: tuple[int, ...]) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": _counter_words(counter),
            "key": np.asarray([seed & _MASK64, purpose & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # empty buffer: the first draw runs the keyed counter
        "has_uint32": 0,
        "uinteger": 0,
    }


def substream(seed: int, purpose: int, *counter: int) -> np.random.Generator:
    """Return an independent generator for (seed, purpose, *counter).

    The same arguments always yield an identical stream.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(0))
    bitgen.state = _keyed_state(seed, purpose, counter)
    return np.random.Generator(bitgen)


class CounterStream:
    """A reusable generator re-keyed per draw site.

    `at(*counter)` yields exactly the same stream `substream` would for the
    same coordinates, but without constructing a generator each time. The
    returned generator is the one shared instance, re-keyed in place, so a
    CounterStream must not be used from multiple threads and a generator
    obtained from `at` is invalidated by the next `at` call.
    """

    def __init__(self, seed: int, purpose: int):
        self.seed = seed
        self.purpose = purpose
        self._bitgen = np.random.Philox(np.random.SeedSequence(0))
        self._gen = np.random.Generator(self._bitgen)
        # built once; `at` rewrites only the counter words before each re-key
        self._state = _keyed_state(seed, purpose, ())
        self._counter = self._state["state"]["counter"]

    def at(self, *counter: int) -> np.random.Generator:
        self._counter[:] = _counter_words(counter)
        self._bitgen.state = self._state
        return self._gen
