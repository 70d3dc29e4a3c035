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
- :func:`quote_value` ≡ ``quote(str(v), safe='')`` over arbitrary text;
- :func:`stable_key_sort` ≡ ``(rows[order], key[order])`` for
  ``order = argsort(kind="stable")``;
- every :class:`GranulaLogWriter` line ≡ :func:`format_line` of its
  fields;
- :class:`VertexValues` ≡ ``dict(enumerate(values.tolist()))``;
- :meth:`CpuAccount.sample` ≡ the per-interval loop it replaced, and
  :meth:`EnvironmentMonitor.flatten` ≡ a sort of the sample objects.
"""

from __future__ import annotations

import math
import pickle
import sys
from urllib.parse import quote

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro import logformat
from repro.cluster.clock import SimClock
from repro.cluster.cpu import CpuAccount, UsageSeries
from repro.core.monitor.envmonitor import EnvironmentMonitor
from repro.core.monitor.records import EnvSample
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
from repro.platforms.base import VertexValues
from repro.platforms.logging_util import GranulaLogWriter
from repro.platforms.vecops import (
    stable_key_order,
    stable_key_sort,
    vertex_set,
)

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


class TestStableKeySort:
    @settings(max_examples=200, deadline=None)
    @given(_keys())
    def test_equals_stable_argsort_and_gather(self, case):
        keys, bound = case
        order, sorted_keys = stable_key_sort(keys, bound)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == sorted_keys.dtype == np.int64
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_keys, keys[expected])

    @settings(max_examples=200, deadline=None)
    @given(_keys(), st.data())
    def test_ascending_rows_come_back_in_sorted_order(self, case, data):
        # Rows that never decrease (a CSR edge list's sources) read back
        # as ``rows[order]``; equal rows may swap unseen.
        keys, bound = case
        steps = data.draw(st.lists(st.integers(0, 3), min_size=len(keys),
                                   max_size=len(keys)))
        rows = np.cumsum(np.array(steps, dtype=np.int64))
        got_rows, sorted_keys = stable_key_sort(keys, bound, rows=rows)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(got_rows, rows[expected])
        assert np.array_equal(sorted_keys, keys[expected])

    def test_wide_keys_and_trivial_inputs(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2 ** 62, 300)
        keys[::5] = 7
        order, sorted_keys = stable_key_sort(keys, 2 ** 62)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(sorted_keys, np.sort(keys))
        for keys, bound in ((np.array([3, 3, 3]), 1 + 3),
                            (np.zeros(4, dtype=np.int64), 1),
                            (np.array([9]), 10)):
            order, sorted_keys = stable_key_sort(keys, bound)
            assert order.tolist() == list(range(len(keys)))
            assert sorted_keys.tolist() == keys.tolist()
            assert sorted_keys is not keys


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


# -- log lines ---------------------------------------------------------------

#: Text the log grammar must quote: separators, the escape character,
#: ``+`` (which ``unquote`` keeps) and non-ASCII characters.
_LOG_TEXT = st.text(
    alphabet=st.sampled_from(list("ab Z09_.-~%=+/&\tä漢🙂")), max_size=12)
_TIMESTAMPS = st.floats(min_value=-1e9, max_value=1e12, allow_nan=False)
_INFO_VALUES = st.one_of(
    _LOG_TEXT, st.integers(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True))


class TestLogWriterLines:
    """Each event kind's f-string is :func:`format_line` of its fields."""

    @settings(max_examples=300, deadline=None)
    @given(_LOG_TEXT.filter(bool), st.data())
    @example("job 1", None)
    def test_lines_equal_format_line(self, job_id, data):
        writer = GranulaLogWriter(job_id, SimClock())
        expected = []
        events = ([("start", "Job", "Client", 0.5, None),
                   ("info", "Name", 1, 0.5, None),
                   ("info", "Name", 1.0, 0.5, None),
                   ("info", "Name", True, 0.5, None),
                   ("end", None, None, 2.0, None)]
                  if data is None else
                  data.draw(st.lists(st.tuples(
                      st.sampled_from(["start", "info", "end"]),
                      _LOG_TEXT, _INFO_VALUES, _TIMESTAMPS,
                      st.booleans()), max_size=12)))
        ops = []
        for kind, text, value, ts, child in events:
            if kind == "start" or not ops:
                parent = ops[-1] if ops and child else None
                mission, actor = text or "M", str(value) or "A"
                op = writer.start(mission, actor, parent, ts=ts)
                ops.append(op)
                expected.append({
                    "ts": f"{ts:.6f}", "job": job_id, "event": "start",
                    "uid": op.uid, "parent": op.parent_uid,
                    "mission": mission, "actor": actor})
            elif kind == "info":
                writer.info(ops[-1], text, value, ts=ts)
                expected.append({
                    "ts": f"{ts:.6f}", "job": job_id, "event": "info",
                    "uid": ops[-1].uid, "name": text, "value": value})
            else:
                op = ops[-1]
                if op.closed:
                    continue
                ended = max(ts, op.started_at)
                writer.end(op, ts=ended)
                expected.append({
                    "ts": f"{ended:.6f}", "job": job_id, "event": "end",
                    "uid": op.uid})
        assert writer.lines == [format_line(f) for f in expected]
        for line, fields in zip(writer.lines, expected):
            parsed = logformat.parse_line(line)
            assert parsed == {k: str(v) for k, v in fields.items()}

    def test_equal_values_of_other_types_keep_their_text(self):
        # 1, 1.0 and True are one dict key; their texts differ.
        writer = GranulaLogWriter("j", SimClock())
        op = writer.start("M", "A", ts=0.0)
        for value in (1, 1.0, True, "1"):
            writer.info(op, "v", value, ts=0.0)
        assert [line.rsplit("=", 1)[1] for line in writer.lines[1:]] == [
            "1", "1.0", "True", "1"]


# -- job outputs ---------------------------------------------------------------

_OUTPUT_ARRAYS = st.one_of(
    st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=40).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.floats(allow_nan=False), max_size=40).map(
        lambda xs: np.array(xs, dtype=np.float64)),
)


class _HashesLikeOne:
    """A key with vertex 1's hash that equals nothing."""

    def __hash__(self):
        return 1

    def __eq__(self, other):
        return False


class TestVertexValues:
    """A job output over an array is ``dict(enumerate(values.tolist()))``."""

    @settings(max_examples=200, deadline=None)
    @given(_OUTPUT_ARRAYS)
    def test_mapping_equals_dict(self, values):
        output = VertexValues(values)
        expected = dict(enumerate(values.tolist()))
        n = len(expected)
        assert len(output) == n
        assert list(output) == list(expected)
        keys = [-1, n, n + 1, 0, 1, 1.0, 0.0, 1.5, True, False,
                np.int64(1), np.int32(0), np.uint8(n - 1 if n else 0),
                "1", None, (0,), -0.0, _HashesLikeOne()]
        for key in keys:
            assert (key in output) == (key in expected), key
        assert output._values is None  # nothing has read a value yet
        for key in keys:
            assert output.get(key, "absent") == expected.get(key, "absent")
        assert output == expected and expected == output
        assert list(output.items()) == list(expected.items())
        assert list(output.values()) == list(expected.values())
        for key in keys:
            if key in expected:
                assert output[key] == expected[key]
            else:
                with pytest.raises(KeyError):
                    output[key]

    def test_unhashable_keys_raise_like_dict(self):
        output = VertexValues(np.arange(3))
        with pytest.raises(TypeError):
            [0] in output
        with pytest.raises(TypeError):
            output.get([0])

    def test_private_read_only_copy(self):
        values = np.array([1.5, 2.5])
        output = VertexValues(values)
        values[0] = 9.0
        assert output[0] == 1.5
        with pytest.raises(ValueError):
            output._array[0] = 3.0

    @settings(max_examples=50, deadline=None)
    @given(_OUTPUT_ARRAYS)
    def test_pickles(self, values):
        # Forked workers of the parallel harness return results pickled.
        output = VertexValues(values)
        clone = pickle.loads(pickle.dumps(output))
        assert type(clone) is VertexValues and clone._values is None
        assert clone == dict(enumerate(values.tolist()))


# -- CPU series ------------------------------------------------------------------


def _sample_by_loop(account: CpuAccount, t0: float, t1: float,
                    step: float) -> UsageSeries:
    """The per-interval loop :meth:`CpuAccount.sample` replaced."""
    n = int(math.ceil((t1 - t0) / step)) if t1 > t0 else 0
    lo = t0 + np.arange(n, dtype=np.float64) * step
    hi = np.minimum(lo + step, t1)
    width = hi - lo
    cpu = np.zeros(n, dtype=np.float64)
    for iv in account.intervals:
        span = np.minimum(iv.end, hi) - np.maximum(iv.start, lo)
        cpu += np.where(span > 0.0, iv.cores * span, 0.0)
    values = np.divide(cpu, width, out=np.zeros(n, dtype=np.float64),
                       where=width > 0)
    return UsageSeries(times=lo.tolist(), values=values.tolist(), step=step)


_INTERVALS = st.lists(st.tuples(
    st.floats(-20, 80, allow_nan=False),
    st.one_of(st.just(0.0), st.floats(0, 0.3), st.floats(0, 40)),
    st.sampled_from([0.0, 0.25, 1.0, 3.0, 16.0, 64.0])), max_size=60)


class TestCpuSample:
    @settings(max_examples=300, deadline=None)
    @given(_INTERVALS, st.floats(-10, 20, allow_nan=False),
           st.one_of(st.just(0.0), st.floats(0, 90)),
           st.sampled_from([1.0, 0.5, 0.3, 2.5, 7.0]))
    @example([(0.0, 1.0, 1.0), (0.5, 0.0, 2.0), (3.0, 5.0, 0.0)],
             0.0, 2.5, 1.0)
    @example([(-5.0, 2.0, 1.0), (50.0, 3.0, 4.0)], 0.0, 10.0, 1.0)
    def test_equals_interval_loop(self, intervals, t0, length, step):
        account = CpuAccount(16)
        for start, duration, cores in intervals:
            account.record(start, start + duration, cores)
        got = account.sample(t0, t0 + length, step)
        want = _sample_by_loop(account, t0, t0 + length, step)
        assert got.times == want.times
        # Bit for bit: hex strings tell -0.0 and 0.0 apart.
        assert [v.hex() for v in got.values] == [v.hex() for v in want.values]

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.text(alphabet="abn0123", min_size=1, max_size=4),
        st.tuples(st.floats(-3, 3, allow_nan=False), st.integers(0, 12),
                  st.sampled_from([0.5, 1.0])),
        max_size=6))
    def test_flatten_equals_sorted_samples(self, spec):
        series = {
            name: UsageSeries(
                times=[t0 + i * step for i in range(count)],
                values=[float(i % 3) for i in range(count)], step=step)
            for name, (t0, count, step) in spec.items()}
        want = [EnvSample(ts, name, value)
                for name in sorted(series) for ts, value in series[name]]
        want.sort(key=lambda s: (s.timestamp, s.node))
        assert EnvironmentMonitor.flatten(series) == want
