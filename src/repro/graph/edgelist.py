"""Edge-list text format.

PowerGraph loads edge-based text files ("src dst" per line) from local or
shared storage (Table 1).  The functions here render and parse that format
and estimate its on-disk size, so the simulated filesystems can charge
realistic I/O time while the engines really consume the edges.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import pair_columns
from repro.graph.graph import Edge, Graph


def _digit_masks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Boolean masks whose per-element sum is ``len(str(x)) - 1``.

    One mask for the sign, then one per power of ten ``p`` with
    ``|x| >= p``, up to the largest magnitude present, so small values
    (BFS levels, partition ids) cost two or three array compares.
    Comparing ``x <= -p`` rather than taking ``|x|`` keeps ``-2**63``
    exact.
    """
    low, high = int(values.min()), int(values.max())
    if low < 0:
        yield values < 0
    power = 10
    while power <= high:
        yield values >= power
        power *= 10
    power = 10
    while -power >= low:
        yield values <= -power
        power *= 10


def int_text_lengths(values: np.ndarray) -> np.ndarray:
    """``len(str(x))`` per element of an integer array."""
    values = np.asarray(values, dtype=np.int64)
    lengths = np.ones(len(values), dtype=np.int64)
    if len(values):
        for mask in _digit_masks(values):
            lengths += mask
    return lengths


def int_text_size(values: np.ndarray) -> int:
    """``sum(len(str(x)) for x in values)`` without per-element lengths."""
    values = np.asarray(values, dtype=np.int64)
    if not len(values):
        return 0
    return len(values) + sum(
        int(np.count_nonzero(mask)) for mask in _digit_masks(values))


#: Largest decimal scaling ``10**q`` the float kernel applies: with
#: ``5**26`` the 128-bit product needs a right shift of at most 63.
_MAX_Q = 26
_POW5 = np.array([5 ** q for q in range(_MAX_Q + 1)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(19)], dtype=np.int64)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _scaled_floor(v: np.ndarray, q: np.ndarray,
                  s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``floor(v * 5**q * 2**s)`` and whether it is exact, per element.

    ``v < 2**55`` and the result stays below ``2**57`` (the caller
    scales to 17 digits), so ``s > 0`` may shift ``v`` up first; the
    128-bit product is built from 32-bit limbs and shifted right by
    ``r = -s <= 63``, keeping the bits shifted out as the exactness flag.
    """
    up = np.maximum(s, 0).astype(np.uint64)
    r = np.maximum(-s, 0).astype(np.uint64)
    v = v << up
    f = _POW5[q]
    v_lo, v_hi = v & _LOW32, v >> _U32
    f_lo, f_hi = f & _LOW32, f >> _U32
    low = v_lo * f_lo
    mid = v_lo * f_hi + v_hi * f_lo
    lo64 = low + (mid << _U32)
    hi64 = v_hi * f_hi + (mid >> _U32) + (lo64 < low)
    # r == 0 only when nothing reaches the high word, so the masked
    # shift count (0 for r == 0) adds nothing there.
    floor = (lo64 >> r) | (hi64 << ((np.uint64(64) - r) & np.uint64(63)))
    exact = (lo64 & ((np.uint64(1) << r) - np.uint64(1))) == 0
    return floor.astype(np.int64), exact


def _shortest_digits(biased: np.ndarray, frac: np.ndarray,
                     q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Digit count and decimal exponent of ``repr``'s shortest round trip.

    For a positive normal float ``M * 2**E`` the values that read back
    as it (round-half-even) lie in ``(4M - 2, 4M + 2) * 2**(E - 2)``,
    whose lower gap is half as wide when ``M`` is a power of two above
    the smallest exponent; both ends are inclusive iff ``M`` is even.
    Both ends are scaled once to units of ``10**-q`` (17 digits, so the
    interval is more than one unit wide and holds an integer), then one
    decimal digit is dropped at a time while the interval still holds an
    integer.  Every integer it holds at the last such level has the same
    digit count (none is a multiple of ten), so the largest one gives it.
    """
    m = frac | np.uint64(1 << 52)
    s = biased - 1077 + q
    lower_gap = np.where((frac == 0) & (biased > 1), 1, 2).astype(np.uint64)
    hi_f, hi_x = _scaled_floor((m << np.uint64(2)) + np.uint64(2), q, s)
    lo_f, lo_x = _scaled_floor((m << np.uint64(2)) - lower_gap, q, s)
    inclusive = (m & np.uint64(1)) == 0
    best = hi_f - (hi_x & ~inclusive)
    level = np.zeros(len(m), dtype=np.int64)
    active = np.arange(len(m))
    while len(active):
        hi_f, hi_r = np.divmod(hi_f, 10)
        lo_f, lo_r = np.divmod(lo_f, 10)
        hi_x &= hi_r == 0
        lo_x &= lo_r == 0
        hi = hi_f - (hi_x & ~inclusive)
        holds = lo_f + 1 - (lo_x & inclusive) <= hi
        active = active[holds]
        best[active] = hi[holds]
        level[active] += 1
        hi_f, hi_x, lo_f, lo_x, inclusive = (
            a[holds] for a in (hi_f, hi_x, lo_f, lo_x, inclusive))
    digits = np.searchsorted(_POW10, best, side="right")
    return digits, level - q + digits - 1


def float_text_lengths(values: np.ndarray) -> np.ndarray:
    """``len(str(x))`` per element of a float array.

    ``str`` of a float is ``repr``: the shortest digits that round-trip,
    fixed notation for decimal exponents in ``[-4, 16)`` and
    ``d[.ddd]e±XX`` outside.  Normal values of magnitude about
    ``[1e-10, 1e17)`` are counted off their bits
    (:func:`_shortest_digits`); zeros, subnormals, non-finite values and
    the rest take ``str`` one at a time.
    """
    x = np.asarray(values, dtype=np.float64)
    bits = x.view(np.uint64)
    biased = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 16 - np.floor(np.log10(np.abs(x)))
    fast = (biased > 0) & (biased < 0x7FF) & (q >= 0) & (q <= _MAX_Q)
    lengths = np.empty(len(x), dtype=np.int64)
    slow = np.flatnonzero(~fast)
    if len(slow):
        lengths[slow] = [len(str(v)) for v in x[slow].tolist()]
    idx = np.flatnonzero(fast)
    if len(idx):
        digits, exp = _shortest_digits(
            biased[idx], bits[idx] & np.uint64((1 << 52) - 1),
            q[idx].astype(np.int64))
        # Fixed notation: "0." and -exp - 1 zeros before the digits below
        # one, zero padding and ".0" when every digit is integral, else
        # one dot.  Exponent notation: "d", ".ddd" if more digits, "e",
        # the sign and two exponent digits (every exponent here is
        # below 100).
        lengths[idx] = np.where(
            (exp >= -4) & (exp < 16),
            np.where(exp < 0, digits + 1 - exp,
                     np.where(digits <= exp + 1, exp + 3, digits + 1)),
            digits + (digits > 1) + 4,
        ) + (x[idx] < 0)
    return lengths


def text_lengths(values: np.ndarray) -> np.ndarray:
    """``len(str(v))`` per element of ``values.tolist()``.

    Integer and float arrays are counted off the array; any other dtype
    takes ``str`` one element at a time.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "i":
        return int_text_lengths(values)
    if kind == "f" and values.dtype.itemsize <= 8:
        return float_text_lengths(values)
    return np.fromiter((len(str(v)) for v in values.tolist()),
                       dtype=np.int64, count=len(values))


def text_size(values: np.ndarray) -> int:
    """``sum(len(str(v)) for v in values.tolist())``."""
    values = np.asarray(values)
    if values.dtype.kind == "i":
        return int_text_size(values)
    return int(text_lengths(values).sum())


class EdgeList:
    """An edge list plus its declared vertex-id space.

    Attributes:
        num_vertices: size of the id space (vertices may be isolated).
        src, dst: parallel int64 arrays, one entry per edge in file
            order.

    Deploying a dataset only needs edge *counts* and byte *sizes*, both
    of which come straight off the arrays, so the Python tuples behind
    :attr:`edges` are built on first use.
    """

    __slots__ = ("num_vertices", "src", "dst", "_edges")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()):
        self.num_vertices = num_vertices
        self.src, self.dst = pair_columns(edges)
        self._edges: Optional[Tuple[Edge, ...]] = None

    @classmethod
    def _of_arrays(cls, num_vertices: int, src: np.ndarray,
                   dst: np.ndarray) -> "EdgeList":
        edge_list = cls(num_vertices)
        edge_list.src = src
        edge_list.dst = dst
        return edge_list

    @classmethod
    def from_graph(cls, graph: Graph) -> "EdgeList":
        """Extract the edge list of a graph, sorted by src then dst."""
        csr = graph.csr()
        return cls._of_arrays(graph.num_vertices, csr.sources(), csr.indices)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The (src, dst) tuples (built on first use)."""
        if self._edges is None:
            self._edges = tuple(zip(self.src.tolist(), self.dst.tolist()))
        return self._edges

    def to_graph(self) -> Graph:
        """Materialize the edge list as a graph."""
        return Graph.from_edge_arrays(self.num_vertices, self.src, self.dst)

    @property
    def num_edges(self) -> int:
        """Number of edges in the list."""
        return len(self.src)

    def text_size_bytes(self) -> int:
        """Exact size of the rendered text file in bytes."""
        return (int_text_size(self.src) + int_text_size(self.dst)
                + 2 * len(self.src))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst))

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return (f"EdgeList(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")


def render_edge_list(edge_list: EdgeList) -> str:
    """Render as one ``"src dst\\n"`` line per edge."""
    return "".join(f"{src} {dst}\n" for src, dst in edge_list.edges)


def parse_edge_list(text: str, num_vertices: int) -> EdgeList:
    """Parse the text format back into an :class:`EdgeList`.

    Blank lines and ``#`` comment lines are ignored, matching the common
    SNAP/Graphalytics conventions.
    """
    src: List[int] = []
    dst: List[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphError(
                f"line {lineno}: expected 'src dst', got {line!r}"
            )
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from None
        if not (0 <= u < num_vertices and 0 <= w < num_vertices):
            raise GraphError(
                f"line {lineno}: edge ({u}, {w}) out of range "
                f"for {num_vertices} vertices"
            )
        src.append(u)
        dst.append(w)
    return EdgeList._of_arrays(num_vertices, np.array(src, dtype=np.int64),
                               np.array(dst, dtype=np.int64))


def split_edges(edge_list: EdgeList, parts: int) -> List[EdgeList]:
    """Split an edge list into ``parts`` contiguous chunks (file splits)."""
    if parts <= 0:
        raise GraphError(f"parts must be positive, got {parts}")
    chunks: List[EdgeList] = []
    m = edge_list.num_edges
    base, extra = divmod(m, parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(EdgeList._of_arrays(
            edge_list.num_vertices, edge_list.src[start:start + size],
            edge_list.dst[start:start + size]))
        start += size
    return chunks
