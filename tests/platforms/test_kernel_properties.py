"""Exactness properties of the engines' array kernels.

Every kernel here replaces per-element Python or a comparison sort on an
engine hot path, and the archives stay byte-identical only if each one
returns exactly what the code it replaced returned:

- :func:`stable_key_order` ≡ ``np.argsort(kind="stable")``, and ≡
  ``np.lexsort`` on a composite ``v * R + p`` key;
- :func:`vertex_set` and :func:`sorted_distinct` ≡ ``np.unique``;
- :func:`int_text_lengths` ≡ ``len(str(x))`` over the whole int64 range,
  and :func:`int_text_size` ≡ their sum;
- :func:`float_text_lengths` ≡ ``len(str(x))`` over every float64 (its
  shortest round-trip repr), and :func:`text_size` ≡ their sum;
- :func:`quote_value` ≡ ``quote(str(v), safe='')`` over arbitrary text.
"""

from __future__ import annotations

import math
import sys
from urllib.parse import quote

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.algorithms.bfs import UNREACHED
from repro.graph.csr import sorted_distinct
from repro.graph.edgelist import (
    float_text_lengths,
    int_text_lengths,
    int_text_size,
    text_lengths,
    text_size,
)
from repro.logformat import format_line, quote_value
from repro.platforms.vecops import stable_key_order, vertex_set

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

_BOUNDS = st.sampled_from(
    [1, 2, 3, 255, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 32 - 1, 2 ** 32,
     2 ** 32 + 1, 2 ** 48, 2 ** 62])


@st.composite
def _keys(draw):
    """(keys, bound): keys in ``[0, bound)``, with many repeats."""
    bound = draw(_BOUNDS)
    size = draw(st.integers(0, 300))
    distinct = draw(st.lists(st.integers(0, bound - 1), min_size=1,
                             max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=size, max_size=size))
    noise = draw(st.lists(st.integers(0, bound - 1), max_size=size // 4))
    keys = [distinct[i] for i in picks] + noise
    return np.array(keys, dtype=np.int64), bound


class TestStableKeyOrder:
    @settings(max_examples=200, deadline=None)
    @given(_keys())
    def test_equals_stable_argsort(self, case):
        keys, bound = case
        order = stable_key_order(keys, bound)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 2 ** 20), st.data())
    def test_composite_key_equals_lexsort(self, parts, n, data):
        size = data.draw(st.integers(0, 200))
        v = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                                        max_size=size)), dtype=np.int64)
        p = np.array(data.draw(st.lists(st.integers(0, parts - 1),
                                        min_size=size, max_size=size)),
                     dtype=np.int64)
        order = stable_key_order(v * parts + p, n * parts)
        assert np.array_equal(order, np.lexsort((p, v)))

    def test_empty_and_single(self):
        for bound in (1, 2 ** 16, 2 ** 32):
            assert stable_key_order(np.empty(0, dtype=np.int64),
                                    bound).tolist() == []
            single = stable_key_order(np.array([bound - 1]), bound)
            assert single.tolist() == [0]

    def test_packing_boundary(self):
        # Key bits + row bits = 63 packs; one more bit takes the stable
        # sort.  Both must give the stable permutation.
        rng = np.random.default_rng(3)
        for bound in (2 ** 54, 2 ** 55):
            keys = rng.integers(bound - 4, bound, 512)
            keys[::7] = 0
            assert np.array_equal(stable_key_order(keys, bound),
                                  np.argsort(keys, kind="stable"))


class TestVertexSet:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000), st.data())
    def test_equals_unique(self, n, data):
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                          max_size=400)), dtype=np.int64)
        out = vertex_set(ids, n)
        assert np.array_equal(out, np.unique(ids))
        assert out.dtype == np.unique(ids).dtype

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=300),
           st.integers(1, 50))
    def test_sorted_distinct_equals_unique(self, values, modulus):
        # The modulus folds the draw onto few keys, so runs repeat.
        for keys in (values, [v % modulus for v in values]):
            keys = np.array(keys, dtype=np.int64)
            out = sorted_distinct(keys)
            assert out.dtype == np.int64
            assert np.array_equal(out, np.unique(keys))

    def test_dense_and_sparse_sets(self):
        # The mask holds for a set of most vertices and for a set of few.
        rng = np.random.default_rng(5)
        for n, size in ((1000, 900), (100_000, 10)):
            ids = rng.integers(0, n, size)
            assert np.array_equal(vertex_set(ids, n), np.unique(ids))


_POWER_EDGES = [s * (10 ** k + d) for k in range(19) for d in (-1, 0, 1)
                for s in (1, -1)]


class TestIntTextLengths:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=60))
    @example([0, UNREACHED, INT64_MIN, INT64_MAX, -1, 9, 10, 11, 99, 100])
    @example(_POWER_EDGES)
    def test_equals_len_str(self, values):
        arr = np.array(values, dtype=np.int64)
        expected = [len(str(x)) for x in values]
        assert int_text_lengths(arr).tolist() == expected
        assert int_text_size(arr) == sum(expected)

    def test_non_negative_only(self):
        values = [0, 1, 9, 10, 10 ** 18 - 1, 10 ** 18, INT64_MAX]
        assert int_text_lengths(np.array(values)).tolist() == [
            len(str(x)) for x in values]

    def test_empty(self):
        assert int_text_lengths(np.empty(0, dtype=np.int64)).tolist() == []
        assert int_text_size(np.empty(0, dtype=np.int64)) == 0


def _boundary_floats():
    """Floats where the digit count or the notation flips."""
    values = []
    for k in range(-1074, 1024):
        v = math.ldexp(1.0, k)
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    for v in (1e16, 9999999999999998.0, 1e-4, 1e-5):
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    for k in range(-12, 19):
        v = 10.0 ** k
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    values += [5e-324, sys.float_info.max, sys.float_info.min,
               1e100, 1e-100, 1.5e300, 2.5e-300, 1e23, 0.1, 0.3, 123.456,
               0.0, math.inf, math.nan]
    return values + [-v for v in values]


def _assert_float_lengths(values):
    arr = np.array(values, dtype=np.float64)
    expected = [len(str(x)) for x in arr.tolist()]
    assert float_text_lengths(arr).tolist() == expected
    assert text_lengths(arr).tolist() == expected
    assert text_size(arr) == sum(expected)


class TestFloatTextLengths:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True, width=64),
                    max_size=60))
    def test_equals_len_str(self, values):
        _assert_float_lengths(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=80))
    def test_bit_patterns(self, patterns):
        _assert_float_lengths(
            np.array(patterns, dtype=np.uint64).view(np.float64))

    def test_boundary_table(self):
        _assert_float_lengths(_boundary_floats())

    def test_random_bits_and_rank_like_values(self):
        # Random bit patterns cover every exponent; PageRank states sit
        # in a narrow band with 16-17 digits; short decimals stop early.
        rng = np.random.default_rng(11)
        _assert_float_lengths(
            rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64)
            .view(np.float64))
        _assert_float_lengths(rng.random(20_000) * 2e-4)
        _assert_float_lengths(10.0 ** rng.uniform(-11, 18, 20_000))
        _assert_float_lengths(np.arange(-5000, 5000) / 8)
        _assert_float_lengths(np.arange(1, 10_000) * 0.001)

    def test_narrow_dtypes_read_as_their_float64_value(self):
        for dtype in (np.float16, np.float32):
            arr = np.array([0.1, 1 / 3, 65504.0, -2.5e-5], dtype=dtype)
            expected = [len(str(x)) for x in arr.tolist()]
            assert text_lengths(arr).tolist() == expected

    def test_empty(self):
        assert float_text_lengths(np.empty(0)).tolist() == []
        assert text_size(np.empty(0)) == 0


class TestTextLengthsDispatch:
    def test_other_dtypes_take_str(self):
        mixed = np.empty(3, dtype=object)
        mixed[:] = [None, (1, 2), 0.5]
        for arr in (np.array([True, False]), np.array(["a", "bcd"]), mixed):
            expected = [len(str(x)) for x in arr.tolist()]
            assert text_lengths(arr).tolist() == expected
            assert text_size(arr) == sum(expected)


class TestQuoteValue:
    @settings(max_examples=400, deadline=None)
    @given(st.text())
    @example("%")
    @example("a b")
    @example("k=v")
    @example("/data/out")
    @example("Compute-4")
    @example("~._-")
    @example("naïve")
    @example("")
    def test_equals_quote(self, text):
        assert quote_value(text) == quote(text, safe="")

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(), st.floats(allow_nan=True)))
    def test_numbers_equal_quote(self, value):
        assert quote_value(value) == quote(str(value), safe="")

    def test_format_line_quotes_reserved_text(self):
        line = format_line({"ts": 1.5, "job": "j 1", "event": "info",
                            "uid": "u", "name": "a/b", "value": "50%"})
        assert line == ("GRANULA ts=1.5 job=j%201 event=info uid=u "
                        "name=a%2Fb value=50%25")
