"""Deterministic random-number-generator helpers.

Every stochastic component in the library (random topologies, Valiant
path selection, Bernoulli injection, failure sampling) accepts either a
seed or a ready-made :class:`numpy.random.Generator`.  Centralising the
coercion here keeps experiments reproducible: the same seed always
yields the same topology, traffic, and simulation outcome.

Routing planners draw one small bounded integer at a time, hundreds of
thousands of times per simulation, and ``Generator.integers`` spends
almost all of its ~2.5 µs per call on numpy's per-call overhead.  A
:class:`DrawStream` makes the same draws from the same bit stream in
pure Python over buffered blocks of raw 64-bit words: every value and
every ``bit_generator.state`` a caller can observe equal those of the
bare generator making the same calls.

Ownership rule: between two reads of a stream's ``bit_generator`` (or
of any other forwarded attribute), the stream owns its generator and
may have pulled words past the consumed position.  A read syncs the
generator back to the consumed position, and the stream reloads from
the generator on its next draw, so calls made on the generator in
between are honoured.  :func:`draw_stream` buffers only a generator it
builds from a seed; a ``Generator`` or bit generator passed in belongs
to the caller and is used as is, and a stream passed in is shared.
"""

from __future__ import annotations

import numpy as np

#: Default seed used by experiments when the caller does not provide one.
DEFAULT_SEED = 0x51F

#: Raw 64-bit words a stream pulls from its bit generator at a time.
BLOCK_WORDS = 4096

_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1


def make_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, or an existing
        ``Generator`` (returned unchanged so callers can thread one
        generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class DrawStream:
    """Buffered ``integers(n)`` draws, exact to a PCG64 ``Generator``.

    ``integers(n)`` for a Python int ``1 <= n <= 2**32`` returns what
    ``generator.integers(n)`` would, consuming the same bits: numpy's
    32-bit Lemire path, where each 64-bit word serves its low half
    first and then its high half (PCG64's ``has_uint32`` /
    ``uinteger``), ``m = u * n`` is rejected while
    ``m mod 2**32 < (2**32 - n) mod n``, and ``n == 1`` consumes
    nothing.  The words come from ``bit_generator.random_raw`` in
    blocks of :data:`BLOCK_WORDS`, fetched at the first draw that needs
    one.

    Any other attribute (``bit_generator``, ``random``, ...) is read
    from the generator after syncing it to the consumed position: the
    block's start state is restored, advanced by the words used, and
    ``has_uint32`` and ``uinteger`` are set as the bare generator would
    have them.  See the module docstring for the ownership rule.
    """

    def __init__(self, generator: np.random.Generator):
        if not isinstance(generator.bit_generator, np.random.PCG64):
            raise TypeError(
                "a DrawStream needs a PCG64 generator, got "
                f"{type(generator.bit_generator).__name__}"
            )
        self._generator = generator
        self._bit_generator = generator.bit_generator
        self._unload()

    def _unload(self) -> None:
        """Leave the generator as the truth; the next draw reloads."""
        self._loaded = False
        #: Generator state at the current block's start, or None when no
        #: block was pulled since the last load.
        self._start = None
        self._words: list[int] = []
        self._pos = BLOCK_WORDS  # next unused word; BLOCK_WORDS = none left
        self._half = -1  # the pending high half, -1 when there is none

    def integers(self, n: int) -> int:
        """A uniform draw from ``range(n)``, as ``Generator.integers(n)``."""
        if not 1 < n <= _TWO32:
            if n == 1:
                return 0
            raise ValueError(f"a DrawStream draws from 1 <= n <= 2**32, got {n!r}")
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_TWO32 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def _next32(self) -> int:
        """The next 32 bits, as PCG64's ``next_uint32`` would give them."""
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        pos = self._pos
        if pos < BLOCK_WORDS:
            word = self._words[pos]
            self._pos = pos + 1
            self._half = word >> 32
            return word & _MASK32
        return self._next32_slow()

    def _next32_slow(self) -> int:
        """The next 32 bits when the block is spent or nothing is loaded."""
        state = self._bit_generator.state
        if not self._loaded:
            self._loaded = True
            if state["has_uint32"]:
                return state["uinteger"]
        self._start = state
        self._words = self._bit_generator.random_raw(BLOCK_WORDS).tolist()
        word = self._words[0]
        self._pos = 1
        self._half = word >> 32
        return word & _MASK32

    def _sync(self) -> None:
        """Put the generator at the consumed position and unload."""
        if not self._loaded:
            return
        bit_generator = self._bit_generator
        if self._start is None:
            # Only the half pending at load was consumed.
            state = bit_generator.state
            state["has_uint32"] = 0
        else:
            bit_generator.state = self._start
            bit_generator.advance(self._pos)
            state = bit_generator.state
            state["has_uint32"] = int(self._half >= 0)
            # numpy keeps the last high half even once it is consumed.
            state["uinteger"] = self._words[self._pos - 1] >> 32
        bit_generator.state = state
        self._unload()


def _forwarded(name: str) -> property:
    def read(self):
        self._sync()
        return getattr(self._generator, name)

    return property(read, doc=f"``Generator.{name}``, read after a sync.")


# One property per public Generator attribute rather than __getattr__:
# a class with __getattr__ loses CPython's specialised attribute
# access, which doubles the cost of a draw.
for _name in dir(np.random.Generator):
    if not _name.startswith("_") and _name != "integers":
        setattr(DrawStream, _name, _forwarded(_name))
del _name


def draw_stream(seed=None):
    """The random source a seeded routing planner draws from.

    A :class:`DrawStream` is returned as is (shared, e.g. by UGAL with
    its inner Valiant), and so is a ``Generator`` (wrapped from a bit
    generator), so a caller that threads one generator through a
    pipeline keeps its exact interleaving.  Any other seed builds a
    fresh PCG64 generator that only the returned stream draws from.
    """
    if isinstance(seed, DrawStream):
        return seed
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        return make_rng(seed)
    return DrawStream(np.random.default_rng(seed))


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    statistically independent streams — important when e.g. every
    endpoint of the simulator owns its own injection process.
    """
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
