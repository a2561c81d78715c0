"""A/B: ``RequestGenerator.skip(k)`` against ``k`` × ``skip_one()``.

``skip`` block-draws the raw words of all but the last shed request and
checks each request's first word against numpy's Lemire rejection;
``skip_one`` makes the draws one request at a time and is the
reference.  After every call both generators' ``bit_generator.state``
(PCG64's buffered 32-bit half included) must be equal, over random
interleavings with ``generate_one``, on three rate grids, through every
fallback trigger, and on crafted words that do and do not reject.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig, RequestConfig
from repro.network.topology import generate_topology
from repro.requests.generator import RequestGenerator, lemire_rejects

#: PCG64's LCG multiplier (numpy's ``PCG64``, not ``PCG64DXSM``).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def crafted_state(word: int, at: int = 0, high: int = 0x0123456789ABCDEF,
                  inc: int = 0xDA3E39CB94B95BDB) -> dict:
    """A PCG64 state whose raw 64-bit word number ``at`` (0 = the next)
    is ``word``.

    PCG64 steps ``s = s * M + inc`` and outputs ``rotr64(hi ^ lo, hi >>
    58)`` of the new state; pick its high half, solve for the low half,
    then step back ``at + 1`` times with the inverse of ``M``.
    """
    rot = high >> 58
    rotl = ((word << rot) | (word >> (64 - rot))) & MASK64 if rot else word
    state = (high << 64) | (rotl ^ high)
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(at + 1):
        state = ((state - inc) * inverse) & MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@pytest.fixture(scope="module")
def networks():
    return {n: generate_topology(NetworkConfig(num_base_stations=n), rng=n)
            for n in (1, 2, 20)}


def twins(network, config=RequestConfig(), rng=lambda: 2024):
    """Two generators on identical streams: (reference, under test)."""
    return (RequestGenerator(config, network, rng=rng()),
            RequestGenerator(config, network, rng=rng()))


def state(generator):
    """The bit generator's state with arrays as lists, so ``==`` works
    for Philox and MT19937 too."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(generator.rng.bit_generator.state)


def loop_skip(generator, count):
    for _ in range(count):
        generator.skip_one()


def count_skip_one(monkeypatch, generator):
    """Count the ``skip_one`` calls ``generator.skip`` makes."""
    calls = []
    inner = generator.skip_one

    def counted():
        calls.append(1)
        inner()

    monkeypatch.setattr(generator, "skip_one", counted)
    return calls


class TestCraftedState:
    def test_crafted_word_is_next(self):
        bit_generator = np.random.PCG64(0)
        for word in (0, 1, 2 ** 32, MASK64, 0x9E3779B97F4A7C15):
            for at in (0, 1, 17):
                bit_generator.state = crafted_state(word, at)
                assert int(bit_generator.random_raw(at + 1)[at]) == word


class TestRejectPredicate:
    @pytest.mark.parametrize("n", [2, 3, 7, 20, 1000, 2 ** 31 + 1,
                                   2 ** 32 - 1])
    def test_matches_numpy_on_crafted_words(self, n):
        """A word is rejected iff ``integers(0, n)`` draws a second
        32-bit half after it."""
        threshold = 2 ** 32 % n
        # Words at and around the edges of each rejection window, plus
        # the extremes: w * n wraps to a leftover near 0 at w = ceil(k *
        # 2**32 / n).
        words = {0, 1, 2 ** 32 - 1}
        for k in (1, 2, n // 2, n - 1):
            start = -(-(k << 32) // n)
            words.update(w for w in (start - 1, start, start + 1,
                                     start + threshold // n + 1)
                         if 0 <= w < 2 ** 32)
        predicted = lemire_rejects(np.array(sorted(words), dtype=np.uint64),
                                   n)
        rng = np.random.Generator(np.random.PCG64(0))
        seen = set()
        for w32, rejects in zip(sorted(words), predicted.tolist()):
            rng.bit_generator.state = crafted_state((7 << 32) | w32)
            rng.integers(0, n)
            after = rng.bit_generator.state
            # Accepted: one word drawn, its high half left buffered.
            accepted = after["has_uint32"] == 1 and after["uinteger"] == 7
            assert rejects == (not accepted), (n, w32)
            seen.add(rejects)
        assert seen == ({False, True} if threshold else {False})


class TestInterleavings:
    @pytest.mark.parametrize("levels", [5, 1, 17],
                             ids=["default-grid", "one-level", "17-levels"])
    def test_state_equal_after_every_call(self, networks, levels):
        config = RequestConfig(num_rate_levels=levels)
        reference, blocked = twins(networks[20], config)
        script = np.random.default_rng(levels)
        for call in range(400):
            if script.random() < 0.3:
                a = reference.generate_one(call, arrival_slot=call)
                b = blocked.generate_one(call, arrival_slot=call)
                assert a.serving_station == b.serving_station
            else:
                count = int(script.integers(0, 60))
                loop_skip(reference, count)
                blocked.skip(count)
            assert state(blocked) == state(reference), call

    def test_block_path_is_taken(self, networks, monkeypatch):
        reference, blocked = twins(networks[20])
        calls = count_skip_one(monkeypatch, blocked)
        loop_skip(reference, 40)
        blocked.skip(40)
        assert state(blocked) == state(reference)
        assert len(calls) == 1


class TestFallbacks:
    """Each trigger restores the stream and runs the per-request loop."""

    def check(self, monkeypatch, reference, blocked, count=12,
              expected_calls=None):
        calls = count_skip_one(monkeypatch, blocked)
        loop_skip(reference, count)
        blocked.skip(count)
        assert state(blocked) == state(reference)
        assert len(calls) == (count if expected_calls is None
                              else expected_calls)

    @pytest.mark.parametrize("word", [
        0x00000007_00000000,  # low half 0: the station draw rejects
        0x00000000_00000001,  # high half 0: the task-count draw rejects
    ], ids=["station-word", "task-word"])
    @pytest.mark.parametrize("request_index", [0, 5, 10])
    def test_word_that_could_reject(self, networks, monkeypatch, word,
                                    request_index):
        """The crafted word is the first word of one blocked request
        (of 12: requests 0-10 are in the block)."""
        assert (lemire_rejects(np.array([word & 0xFFFFFFFF],
                                        dtype=np.uint64), 20)[0]
                or lemire_rejects(np.array([word >> 32],
                                           dtype=np.uint64), 3)[0])
        reference, blocked = twins(networks[20])
        stride = blocked._skip_stride
        assert stride == 8  # one shared word, two doubles, five jitters
        for generator in (reference, blocked):
            generator.rng.bit_generator.state = crafted_state(
                word, at=request_index * stride)
        self.check(monkeypatch, reference, blocked)

    def test_rejecting_word_in_last_request_needs_no_fallback(
            self, networks, monkeypatch):
        """Only the block is checked: the last request is a real
        ``skip_one``, which handles its own rejection."""
        reference, blocked = twins(networks[20])
        for generator in (reference, blocked):
            generator.rng.bit_generator.state = crafted_state(
                0, at=5 * blocked._skip_stride)
        self.check(monkeypatch, reference, blocked, count=6,
                   expected_calls=1)

    def test_one_station(self, networks, monkeypatch):
        reference, blocked = twins(networks[1])
        assert blocked._skip_bounds is None
        self.check(monkeypatch, reference, blocked)

    def test_one_value_task_range(self, networks, monkeypatch):
        config = RequestConfig(tasks_range=(4, 4))
        reference, blocked = twins(networks[20], config)
        assert blocked._skip_bounds is None
        self.check(monkeypatch, reference, blocked)

    @pytest.mark.parametrize("bit_generator", [np.random.Philox,
                                               np.random.MT19937,
                                               np.random.PCG64DXSM])
    def test_other_bit_generator(self, networks, monkeypatch,
                                 bit_generator):
        reference, blocked = twins(
            networks[20],
            rng=lambda: np.random.Generator(bit_generator(99)))
        assert blocked._skip_bounds is None
        self.check(monkeypatch, reference, blocked)

    def test_buffered_half_on_entry(self, networks, monkeypatch):
        reference, blocked = twins(networks[20])
        for generator in (reference, blocked):
            generator.rng.integers(0, 7)  # leaves a 32-bit half buffered
            assert state(generator)["has_uint32"] == 1
        self.check(monkeypatch, reference, blocked)

    def test_two_stations_take_the_block_path(self, networks, monkeypatch):
        reference, blocked = twins(networks[2])
        self.check(monkeypatch, reference, blocked, expected_calls=1)

    @pytest.mark.parametrize("count", [0, 1])
    def test_nothing_to_block(self, networks, monkeypatch, count):
        reference, blocked = twins(networks[20])
        self.check(monkeypatch, reference, blocked, count=count)
