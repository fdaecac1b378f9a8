"""Tests for the util package: rng, tables, series, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import (
    Series,
    SeriesBundle,
    ascii_table,
    check_in_range,
    check_positive_int,
    check_probability,
    format_row,
    make_rng,
    spawn_rngs,
)
from repro.util.rng import BLOCK_WORDS, DrawStream, draw_stream
from repro.util.series import crossover
from repro.util.tables import format_cell


class TestRng:
    def test_seed_determinism(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_spawn_independence(self):
        children = spawn_rngs(3, 4)
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 4

    def test_spawn_from_generator(self):
        g = np.random.default_rng(0)
        children = spawn_rngs(g, 3)
        assert len(children) == 3


#: Bounds a draw run picks from: n == 1 consumes nothing, 2**31 + 7
#: rejects about half of its words, 2**32 takes a raw half-word.
EDGE_BOUNDS = (1, 2, 2**31 + 7, 2**32)
_BOUNDS = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32))
_OPERATIONS = st.one_of(
    st.tuples(st.just("draws"), st.lists(_BOUNDS, min_size=1, max_size=40)),
    st.tuples(
        st.sampled_from(["state", "stream-random", "bare-random", "bare-wide",
                         "bare-small"]),
        st.none(),
    ),
)


class TestDrawStream:
    """A DrawStream's draws and generator state equal a bare generator's.

    The stream depends only on PCG64's raw words, which numpy keeps
    stable across versions; ``Generator.integers`` has no such
    guarantee, so the reference is the installed numpy's own
    ``default_rng``, never a table of pinned values."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), operations=st.lists(_OPERATIONS, max_size=30))
    def test_interleaved_calls_match_the_bare_generator(self, seed, operations):
        generator = np.random.default_rng(seed)
        stream = DrawStream(generator)
        bare = np.random.default_rng(seed)
        for kind, bounds in [("draws", list(EDGE_BOUNDS))] + operations:
            if kind == "draws":
                for n in bounds:
                    got = stream.integers(n)
                    assert type(got) is int and got == bare.integers(n), n
            elif kind == "stream-random":
                assert stream.random() == bare.random()
            elif kind != "state":
                stream.bit_generator  # a sync hands the bit stream back
                if kind == "bare-random":
                    assert generator.random() == bare.random()
                elif kind == "bare-wide":
                    assert generator.integers(0, 2**40) == bare.integers(0, 2**40)
                else:  # leaves the generator holding a pending half-word
                    assert generator.integers(5) == bare.integers(5)
            assert stream.bit_generator.state == bare.bit_generator.state, kind

    @pytest.mark.parametrize("check_every", [None, 641])
    def test_runs_across_blocks(self, check_every):
        stream, bare = draw_stream(2024), np.random.default_rng(2024)
        bounds = (2, 3, 7, 59, 1, 2**31 + 7, 2**32)
        # Six of every seven draws take at least a half-word: three blocks.
        for i in range(7 * BLOCK_WORDS):
            n = bounds[i % len(bounds)]
            assert stream.integers(n) == bare.integers(n), i
            if check_every and i % check_every == 0:
                assert stream.bit_generator.state == bare.bit_generator.state, i
        assert stream.bit_generator.state == bare.bit_generator.state

    def test_the_first_draw_pulls_the_first_block(self):
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        stream = DrawStream(generator)
        stream.integers(1)
        assert generator.bit_generator.state == before
        stream.integers(5)
        ahead = np.random.default_rng(3).bit_generator
        ahead.advance(BLOCK_WORDS)
        assert generator.bit_generator.state["state"] == ahead.state["state"]

    def test_streams_and_generators_pass_through(self):
        stream = draw_stream(1)
        assert isinstance(stream, DrawStream)
        assert draw_stream(stream) is stream
        generator = np.random.default_rng(1)
        assert draw_stream(generator) is generator

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64])
    def test_a_bit_generator_seed_stays_unbuffered(self, bit_generator):
        # The caller keeps the bit generator and may read it directly.
        seed = bit_generator(5)
        rng = draw_stream(seed)
        assert isinstance(rng, np.random.Generator) and rng.bit_generator is seed

    def test_needs_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            DrawStream(np.random.Generator(np.random.MT19937(5)))

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_bounds_outside_the_32_bit_path_raise(self, n):
        stream = draw_stream(0)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream.integers(n)


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(1234) == "1,234"
        assert format_cell(float("nan")) == "-"
        assert format_cell(0.123456) == "0.123"
        assert format_cell(1234.5) == "1,234"

    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_title(self):
        text = ascii_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_format_row_with_widths(self):
        assert format_row([1, 2], widths=[3, 3]) == "  1    2"


class TestSeries:
    def test_append_and_pairs(self):
        s = Series("a")
        s.append(1, 10)
        s.append(2, 20)
        assert s.as_pairs() == [(1, 10), (2, 20)]
        assert len(s) == 2

    def test_bundle_get(self):
        b = SeriesBundle("t", "x", "y")
        b.new("one")
        assert b.get("one").name == "one"
        with pytest.raises(KeyError):
            b.get("two")
        assert b.names == ["one"]

    def test_render(self):
        b = SeriesBundle("title", "load", "latency")
        s = b.new("MIN")
        s.append(0.1, 8.0)
        text = b.render()
        assert "title" in text and "MIN" in text and "(0.1, 8)" in text

    def test_render_subsamples(self):
        b = SeriesBundle("t", "x", "y")
        s = b.new("s")
        for i in range(100):
            s.append(i, i)
        text = b.render(max_points=10)
        assert text.count("(") <= 15

    def test_crossover(self):
        a = Series("a", [1, 2, 3], [1, 5, 9])
        b = Series("b", [1, 2, 3], [2, 4, 6])
        assert crossover(a, b) == 2
        c = Series("c", [1, 2, 3], [0, 0, 0])
        assert crossover(c, b) is None


class TestValidation:
    def test_positive_int(self):
        assert check_positive_int(5, "x") == 5
        assert check_positive_int(np.int64(5), "x") == 5
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(ValueError):
            check_positive_int(-1, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int("five", "x")

    def test_in_range(self):
        check_in_range(5, "x", 0, 10)
        with pytest.raises(ValueError):
            check_in_range(11, "x", 0, 10)

    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")
