"""Immutable weighted graph with both out- and in-adjacency.

The graph is stored in compressed sparse form (CSR-style index arrays) for
both edge directions, one set shared by an undirected graph, so samplers can
ask for out- and in-neighborhoods in O(degree); a directed graph builds its
in-CSR on first read. Node ids are dense integers ``0..n-1``; loaders remap
arbitrary file ids and return the mapping alongside the graph.
"""

from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Hashable, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import ParseError, ValidationError, is_integer, is_real, require

UNKNOWN_LABEL = "unknown"


# the out-list sort key src * n + dst must not overflow int64
_MAX_NODES = math.isqrt(2**63 - 1)
# a directed graph's in-CSR and in-strengths: ``_InSideUnbuilt`` builds all
# four on the first read of any
_IN_SIDE = frozenset(("_in_indptr", "_in_src", "_in_w", "in_strength"))


def _merge_parallel(n, src, dst, w):
    """Sort edges by (src, dst) and merge parallel edges by weight sum.

    A stable sort of ``src * n + dst`` gives the order of ``lexsort((dst,
    src))``, so each pair's weights are summed in input order. Edges already
    in strictly increasing key order (a saved edge list, a one-block SBM, an
    induced subgraph) skip the sort. The returned ``dst`` and ``w`` are never
    the caller's arrays.
    """
    key = src * n + dst
    if np.all(key[1:] > key[:-1]):
        del key
        # + 0.0 makes a -0.0 weight 0.0, as the bincount's sum does
        return src, dst.copy(), w + 0.0
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    del key
    group = np.cumsum(first)
    group -= 1
    # astype keeps float64 when there are no edges
    w = np.bincount(group, weights=w[order]).astype(np.float64, copy=False)
    del group
    kept = order[first]
    del order, first
    return src[kept], dst[kept], w


def _indptr(rows, n):
    return _offsets(np.bincount(rows, minlength=n))


def _offsets(counts):
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _symmetric_csr(n, src, dst, w):
    """The out-CSR ``(indptr, dst, w)`` of the undirected graph on the edges
    ``src - dst``: each pair once as ``(lo, hi)``, stored both ways.

    The edges are oriented low -> high and merged by ``_merge_parallel``, so
    each pair's weight is summed once, in input order, and both directions
    hold its bits. Row ``i`` lists its lower neighbours ``j < i`` first,
    ascending, taken from scipy's CSR -> CSC transpose of the strict-upper
    pairs (a stable counting sort by ``hi``), then its own pairs
    ``(i, j >= i)``, self-loop first.
    """
    lo, hi, w = _merge_parallel(n, np.minimum(src, dst), np.maximum(src, dst), w)
    strict = lo != hi
    low = sp.csr_matrix(
        (w[strict], hi[strict], _indptr(lo[strict], n)), shape=(n, n)
    ).tocsc()
    del strict
    own_cnt = np.bincount(lo, minlength=n)
    low_cnt = np.diff(low.indptr)
    indptr = _offsets(own_cnt + low_cnt)
    out_dst = np.empty(indptr[-1], dtype=np.int64)
    out_w = np.empty(indptr[-1], dtype=np.float64)
    # a row's own pairs follow its lower neighbours
    at = np.arange(lo.size)
    at += (indptr[:-1] + low_cnt - _offsets(own_cnt)[:-1])[lo]
    out_dst[at], out_w[at] = hi, w
    del lo, hi, w
    at = np.arange(low.indices.size)
    at += np.repeat(indptr[:-1] - low.indptr[:-1], low_cnt)
    out_dst[at], out_w[at] = low.indices, low.data
    return indptr, out_dst, out_w


def _edge_column(name, values, what, kinds) -> np.ndarray:
    """``values`` as a 1-D array whose dtype kind is one of ``kinds``; an
    empty one may have any dtype."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        a = None
    ok = a is not None and a.ndim == 1 and (a.size == 0 or a.dtype.kind in kinds)
    require(name, values if a is None else a, f"a 1-D array of {what}", ok)
    return a


def node_ids(name: str, ids, n: int) -> np.ndarray:
    """``ids``, any iterable of integers, as an int64 array in ``0..n-1``;
    anything else, ``str`` and ``bytes`` too, is a ``ValidationError`` that
    names ``name``."""
    what = "a 1-D array of integer node ids"
    require(name, ids, what, not isinstance(ids, (str, bytes, bytearray)))
    if isinstance(ids, Iterable) and not isinstance(ids, np.ndarray):
        ids = list(ids)  # a generator or a set has no array view
    a = _edge_column(name, ids, "integer node ids", "iuO")
    if a.dtype == object:
        # numpy keeps a list of ints as objects when one is beyond 64 bits
        require(name, a, what, all(map(is_integer, a)))
        bad = [v for v in a.tolist() if not 0 <= v < n]
        if bad:
            raise ValidationError(f"{name} {bad[0]} not in 0..{n - 1}")
        a = a.astype(np.int64)
    if a.size and (a.min() < 0 or a.max() >= n):
        bad = a[(a < 0) | (a >= n)][0]
        raise ValidationError(f"{name} {bad} not in 0..{n - 1}")
    return a.astype(np.int64, copy=False)


class Graph:
    """Immutable weighted graph; all weights are finite and >= 0.

    ``out_adj`` and ``in_adj`` are exact transposes: edge ``(i -> j, w)``
    appears in ``out_adj[i]`` iff ``(i, w)`` appears in ``in_adj[j]``.
    Parallel edges merge by weight sum. An undirected graph takes each edge
    once, in either orientation, and stores it both ways (a self-loop once),
    so a reversed copy sums like a parallel edge; its in-lists are its out-lists.
    A directed graph builds its in-lists and ``in_strength`` on first read.
    """

    def __init__(self, n: int, src, dst, w, directed: bool):
        src = _edge_column("src", src, "integer node ids", "iu")
        dst = _edge_column("dst", dst, "integer node ids", "iu")
        w = _edge_column("w", w, "real weights", "iuf")
        if not (src.shape == dst.shape == w.shape):
            raise ValidationError("edge arrays must have equal length")
        require("n", n, "a non-negative integer", is_integer(n) and n >= 0)
        if n > _MAX_NODES:
            raise ValidationError(f"n={n} exceeds the limit of {_MAX_NODES} nodes")
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValidationError("edge endpoint out of range")
        src = src.astype(np.int64, copy=False)
        dst = dst.astype(np.int64, copy=False)
        w = w.astype(np.float64, copy=False)
        if not np.all(np.isfinite(w)):
            raise ValidationError("edge weight is NaN or infinite")
        if np.any(w < 0):
            raise ValidationError("negative edge weight")
        require("directed", directed, "true or false", isinstance(directed, (bool, np.bool_)))
        self.n = int(n)
        self.directed = bool(directed)
        if directed:
            out_src, self._out_dst, self._out_w = _merge_parallel(n, src, dst, w)
            del src, dst, w
            self._out_indptr = _indptr(out_src, n)
        else:
            self._out_indptr, self._out_dst, self._out_w = _symmetric_csr(n, src, dst, w)
            del src, dst, w
            out_src = self.edge_src()
        # astype keeps float64 when there are no edges, without a copy otherwise
        self.out_strength = np.bincount(out_src, self._out_w, n).astype(np.float64, copy=False)
        del out_src
        if directed:
            self.__class__ = _InSideUnbuilt
        else:
            # the edge set is symmetric with equal weights both ways, so the
            # in-CSR is the out-CSR
            self._in_indptr, self._in_src, self._in_w = self._out_indptr, self._out_dst, self._out_w
            self.in_strength = self.out_strength

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], directed: bool) -> "Graph":
        """Build from an iterable of ``(src, dst)`` or ``(src, dst, w)``."""
        src, dst, w = [], [], []
        for i, e in enumerate(edges):
            try:
                if len(e) not in (2, 3):
                    raise ValueError(f"expected (src, dst) or (src, dst, w), got {len(e)} fields")
                if not (is_integer(e[0]) and is_integer(e[1])):
                    raise ValueError("node ids must be integers")
                if len(e) == 3 and not is_real(e[2]):
                    raise ValueError("the weight must be a real number")
                src.append(np.int64(e[0]))
                dst.append(np.int64(e[1]))
                w.append(np.float64(e[2]) if len(e) == 3 else 1.0)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"edge {i} {e!r}: {exc}") from None
        return cls(n, src, dst, w, directed)

    # -- neighbor queries ---------------------------------------------

    def out_neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._out_indptr[i], self._out_indptr[i + 1]
        return self._out_dst[lo:hi], self._out_w[lo:hi]

    def in_neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._in_indptr[i], self._in_indptr[i + 1]
        return self._in_src[lo:hi], self._in_w[lo:hi]

    def in_transitions(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, P(s -> i), d_out(s) > 0)`` over the in-list of ``i``."""
        lo, hi = self._in_indptr[i], self._in_indptr[i + 1]
        p, live = self._in_transition
        return self._in_src[lo:hi], p[lo:hi], live[lo:hi]

    # -- derived data, made on first use --------------------------------

    @cached_property
    def _in_transition(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(p, live)`` aligned with the in-CSR: for the in-edge
        ``s -> i``, ``live`` is ``d_out(s) > 0`` and ``p = w_si / d_out(s)``
        where live, else 0. Costs 9 bytes per stored in-edge.

        Each ``p`` is one elementwise division, so it has the bits of
        ``w / d_out`` computed on any slice.
        """
        p = self.out_strength[self._in_src]
        live = p > 0
        np.divide(self._in_w, p, out=p, where=live)  # a dead entry keeps its 0.0
        p.flags.writeable = live.flags.writeable = False
        return p, live

    @cached_property
    def has_self_loop(self) -> bool:
        """Whether some node is its own neighbour."""
        return bool(np.any(self._out_dst == self.edge_src()))

    @cached_property
    def digest(self) -> str:
        """sha256 of ``n``, the kind and the bytes of ``edge_arrays()``,
        hashed from the stored out-CSR without copies."""
        h = hashlib.sha256()
        h.update(np.int64(self.n).tobytes())
        h.update(b"directed" if self.directed else b"undirected")
        for a in (self.edge_src(), self._out_dst, self._out_w):
            h.update(a)
        return h.hexdigest()

    # -- bulk views ---------------------------------------------------

    def edge_src(self) -> np.ndarray:
        cnt = np.diff(self._out_indptr)
        return np.repeat(np.arange(self.n), cnt)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored edges as ``(src, dst, w)``, ordered by ``(src, dst)``.

        An undirected graph stores each non-loop edge both ways and returns
        both; ``Graph`` takes each undirected edge once and sums a reversed
        copy like a parallel edge. To rebuild an undirected graph, keep one
        direction::

            src, dst, w = g.edge_arrays()
            keep = src <= dst
            Graph(g.n, src[keep], dst[keep], w[keep], directed=False)
        """
        return self.edge_src(), self._out_dst.copy(), self._out_w.copy()

    @property
    def num_edges(self) -> int:
        return int(self._out_dst.size)

    def to_scipy(self):
        """Adjacency as ``scipy.sparse.csr_matrix`` with ``A[i, j]`` = weight i->j."""
        return sp.csr_matrix(
            (self._out_w, self._out_dst, self._out_indptr), shape=(self.n, self.n)
        )

    def to_scipy_transpose(self):
        """``A^T`` as ``scipy.sparse.csr_matrix``, wrapping the in-CSR, which
        a directed graph builds on first read.

        The weights are shared; scipy may narrow the index arrays.
        """
        return sp.csr_matrix(
            (self._in_w, self._in_src, self._in_indptr), shape=(self.n, self.n)
        )

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, edges={self.num_edges}, {kind})"


class _InSideUnbuilt(Graph):
    """A directed ``Graph`` before the first read of a name in ``_IN_SIDE``,
    which builds all four (16 bytes per stored edge) and makes the instance a
    plain ``Graph``. A ``__getattr__`` on ``Graph`` itself would keep CPython
    from specializing any attribute read of any graph.
    """

    def __getattr__(self, name):
        # called only when normal lookup fails
        if name not in _IN_SIDE:
            raise AttributeError(f"'Graph' object has no attribute {name!r}")
        # scipy's CSR -> CSC transpose is a stable counting sort by target, so
        # each in-list's sources stay ascending; it may narrow the index dtype.
        # bincount adds in list order, so each target's in-weights arrive by
        # ascending source, as in its in-list
        csc = self.to_scipy().tocsc()
        self._in_indptr = csc.indptr.astype(np.int64)
        self._in_src = csc.indices.astype(np.int64)
        self._in_w = csc.data
        self.in_strength = np.bincount(self._out_dst, self._out_w, self.n).astype(np.float64, copy=False)
        self.__class__ = Graph
        return vars(self)[name]


@dataclass(frozen=True)
class NodeMapping:
    """Bijection between dense subgraph ids and original ids."""

    sub_to_full: np.ndarray

    def to_full(self, sub_ids) -> np.ndarray:
        return self.sub_to_full[node_ids("subgraph id", sub_ids, len(self.sub_to_full))]

    def __len__(self):
        return len(self.sub_to_full)


@dataclass(frozen=True, eq=False)
class LabeledPartition:
    """A categorical label (SBM block or attribute region) per dense node id.

    ``codes[v]`` indexes ``categories`` (in natural order, else by ``str``);
    -1 marks an unlabelled node, which reads as the reserved ``unknown`` label.
    """

    codes: np.ndarray
    categories: tuple

    @classmethod
    def from_labels(cls, n: int, nodes, labels) -> "LabeledPartition":
        """Nodes ``0..n-1`` with ``labels[i]`` on ``nodes[i]``; the rest are unlabelled."""
        try:
            cats = tuple(sorted(set(labels)))
        except TypeError:
            cats = tuple(sorted(set(labels), key=str))
        code = {c: k for k, c in enumerate(cats)}
        codes = np.full(n, -1, dtype=np.int32)
        codes[np.asarray(nodes, dtype=np.int64)] = [code[lab] for lab in labels]
        return cls(codes, cats)

    @property
    def names(self) -> np.ndarray:
        """The label each code reads as, ``unknown`` last for code -1."""
        return np.array([*self.categories, UNKNOWN_LABEL], dtype=object)

    def codes_of(self, nodes) -> np.ndarray:
        """The codes of ``nodes``; an id outside ``0..n-1`` is a ``ValidationError``."""
        return self.codes[node_ids("node id", nodes, self.codes.size)]

    def label_of(self, node: int) -> Hashable:
        return self.names[self.codes_of([node])[0]]


_PAIR = np.dtype([("src", np.int64), ("dst", np.int64)])
_TRIPLE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", np.float64)])
_INT64 = range(-(2**63), 2**63)
_WRITE_BLOCK = 1 << 16
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # an id with k digits is < 10**k


def load_edge_list(path, directed: bool) -> tuple[Graph, NodeMapping]:
    """Read a SNAP-style edge list: ``src ws dst [ws weight]``, '#' comments.

    Original ids are remapped to dense 0-based ids (sorted order); duplicate
    edges merge by weight summation; self-loops are kept; for undirected
    graphs each edge is materialized in both directions.
    """
    require("directed", directed, "true or false", isinstance(directed, (bool, np.bool_)))
    cols = _parse_columns(path) or _scan_lines(path)
    m, w = cols[0].size, cols[2]
    ends = np.concatenate(cols[:2])
    del cols  # frees the parsed rows
    ids, ends = _dense_ids(ends)
    g = Graph(ids.size, ends[:m], ends[m:], w, directed)
    return g, NodeMapping(sub_to_full=ids)


def _dense_ids(ids):
    """Sorted distinct ``ids`` and the rank of each among them; may shift
    ``ids`` in place.

    When the ids span fewer values than there are ids, a presence mask over
    the span ranks them without a sort. The span is taken in Python ints,
    because ``max - min`` can overflow int64.
    """
    if ids.size:
        lo = int(ids.min())
        span = int(ids.max()) - lo
        if span < ids.size:
            ids -= lo
            present = np.zeros(span + 1, dtype=bool)
            present[ids] = True
            rank = np.cumsum(present)
            rank -= 1
            return np.flatnonzero(present) + lo, rank[ids]
    return np.unique(ids, return_inverse=True)


def _parse_columns(path):
    """Parse an edge list in one ``np.loadtxt`` pass, or return None.

    ``loadtxt`` takes inline ``#`` comments and NaN, infinite or negative
    weights, which ``_scan_lines`` rejects. Files with any of these or with
    lone ``\\r`` line ends, and files ``loadtxt`` cannot parse (mixed 2- and
    3-field lines, ``1_000`` or Unicode digits, ids beyond int64, invalid
    UTF-8), return None and are left to ``_scan_lines``.
    """
    data = _read_bytes(path)
    lone_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if lone_cr or not _hashes_begin_comments(data):
        return None
    del data  # loadtxt reads the file itself
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for dtype in (_PAIR, _TRIPLE):
            try:
                rows = np.loadtxt(path, dtype=dtype, comments="#", encoding="utf-8", ndmin=1)
            except ValueError:
                continue
            # a copy of the weights, so that the rows can be freed
            w = rows["w"].copy() if dtype is _TRIPLE else np.broadcast_to(1.0, rows.shape)
            if not (np.all(np.isfinite(w)) and np.all(w >= 0)):
                return None
            return rows["src"], rows["dst"], w
    return None


def _hashes_begin_comments(data: bytes) -> bool:
    """True if only whitespace precedes each ``#`` that is not inside a comment."""
    at = data.find(b"#")
    while at >= 0:
        if data[data.rfind(b"\n", 0, at) + 1 : at].strip():
            return False
        end = data.find(b"\n", at)
        at = -1 if end < 0 else data.find(b"#", end)
    return True


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``, or a ``ValidationError`` that names it."""
    try:
        return Path(path).read_bytes()
    except (OSError, TypeError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}") from None


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; invalid UTF-8 is a ``ParseError``."""
    data = _read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line_no = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise ParseError(f"not valid UTF-8: {exc.reason}", path, line_no) from None


def _scan_lines(path):
    """Parse an edge list line by line, raising on the first bad line.

    The loader's only source of errors about the file's content.
    """
    src, dst, w = [], [], []
    # newline=None ends lines at \n, \r and \r\n, as open() does
    for line_no, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError("expected 2 ids or 2 ids + weight", path, line_no)
        try:
            a = int(parts[0])
            b = int(parts[1])
            wt = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"malformed line: {exc}", path, line_no) from None
        if not math.isfinite(wt) or wt < 0:
            raise ValidationError(f"{path}:{line_no}: weight {wt} must be finite and >= 0")
        if a not in _INT64 or b not in _INT64:
            raise ParseError("node id outside the int64 range", path, line_no)
        src.append(a)
        dst.append(b)
        w.append(wt)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


def save_edge_list(g: Graph, path, mapping: NodeMapping | None = None) -> None:
    """Write the graph back out in the loader's format, with ``\\n`` line ends.

    Undirected graphs emit each edge once (the ``src <= dst`` copy).
    """
    src, dst, w = g.edge_src(), g._out_dst, g._out_w
    if not g.directed:
        keep = src <= dst
        src, dst, w = src[keep], dst[keep], w[keep]
    if mapping is None:
        ids = np.arange(g.n)
    else:
        ids = np.asarray(mapping.sub_to_full)
        if ids.dtype.kind not in "iu" or ids.shape != (g.n,):
            raise ValidationError(
                f"mapping must hold {g.n} integer ids, got a {ids.dtype} array of shape {ids.shape}"
            )
    with open(path, "wb") as fh:
        if not src.size:
            return
        text = _id_text(ids)
        width = text.itemsize
        # one row matrix for every block: the text of a, a space, the text
        # of b and a newline, with zero bytes left of each number
        rows = np.zeros((min(src.size, _WRITE_BLOCK), 2 * width + 2), dtype=np.uint8)
        rows[:, width] = ord(" ")
        rows[:, -1] = ord("\n")
        # format a block of rows per write, so memory stays flat in the edge count
        for lo in range(0, src.size, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            fh.write(_format_rows(text, rows, src[block], dst[block], w[block]))


def _id_text(ids) -> np.ndarray:
    """Each of the non-empty integer ``ids`` as one ``V{width}`` item: its
    ASCII decimal, right-aligned in the widest id's width, with zero bytes
    left of the number.

    The table is built one ``_WRITE_BLOCK`` of ids at a time, so that only
    its ``width`` bytes per id outlive a block.
    """
    width = max(len(str(int(ids.min()))), len(str(int(ids.max()))))
    table = np.empty((ids.size, width), dtype=np.uint8)
    for lo in range(0, ids.size, _WRITE_BLOCK):
        table[lo : lo + _WRITE_BLOCK] = _decimal(ids[lo : lo + _WRITE_BLOCK], width)
    return table.view(f"V{width}").ravel()


def _format_rows(text, rows, src, dst, w) -> bytes:
    """The lines ``f"{a} {b}\\n"``, or ``f"{a} {b} {w!r}\\n"`` where ``w != 1.0``,
    with ``a`` and ``b`` the ``text`` items of ``src`` and ``dst``.

    ``rows`` is ``save_edge_list``'s row matrix; its id columns are
    overwritten. Zero bytes pad each field, so dropping them leaves the text.
    """
    k, width = src.size, text.itemsize
    rows = rows[:k]
    rows[:, :width].view(text.dtype)[:, 0] = text.take(src)
    rows[:, width + 1 : -1].view(text.dtype)[:, 0] = text.take(dst)
    odd = np.flatnonzero(w != 1.0)
    if odd.size:
        # repr is the shortest text that reads back as the same float
        weights = np.array([repr(x) for x in w[odd].tolist()], dtype="S")
        weight = np.zeros((k, 1 + weights.itemsize), dtype=np.uint8)
        weight[odd, 0] = ord(" ")
        weight[odd, 1:] = weights.view(np.uint8).reshape(odd.size, -1)
        rows = np.hstack([rows[:, :-1], weight, rows[:, -1:]])
    return rows.tobytes().replace(b"\0", b"")


def _decimal(ids, width) -> np.ndarray:
    """Non-empty integer ``ids`` as right-aligned ASCII decimal, one per row of
    a ``width``-column ``uint8`` matrix, with zero bytes left of each number."""
    neg = ids < 0
    # the magnitude by two's complement in uint64, exact for -2**63 as well
    mag = ids.astype(np.int64).view(np.uint64)
    np.negative(mag, out=mag, where=neg)
    rows = np.flatnonzero(neg)
    # a minus sign goes just left of the leading digit
    sign_col = -2 - np.searchsorted(_POW10, mag[rows], side="right")
    out = np.zeros((ids.size, width), dtype=np.uint8)
    for p in range(1, len(str(mag.max())) + 1):
        q = mag // 10
        digit = mag - q * 10 + ord("0")
        if p > 1:
            digit *= mag != 0  # a zero byte left of the leading digit
        out[:, -p] = digit
        mag = q
    out[rows, sign_col] = ord("-")
    return out


def load_labels(path, mapping: NodeMapping) -> LabeledPartition:
    """Read a ``node_id<TAB>label`` file, keyed by the edge list's own ids,
    into a partition over the dense ids of ``mapping``.

    Consistent duplicates are allowed; conflicting duplicates and ids absent
    from the edge list are errors.
    """
    ids, labels, lines = [], [], []
    for line_no, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise ParseError("expected 'id<TAB>label'", path, line_no)
        try:
            ids.append(np.int64(parts[0]))
        except (ValueError, OverflowError):
            raise ParseError("expected an int64 node id", path, line_no) from None
        labels.append(parts[1])
        lines.append(line_no)
    dense, found = sorted_lookup(np.asarray(mapping.sub_to_full), np.asarray(ids, dtype=np.int64))
    if not found.all():
        i = np.argmin(found)
        raise ValidationError(f"{path}:{lines[i]}: node {ids[i]} is not in the edge list")
    labels = np.array(labels, dtype=object)
    _, first, node_of = np.unique(dense, return_index=True, return_inverse=True)
    was = labels[first[node_of]]  # each line's node's first label
    clash = np.flatnonzero(was != labels)
    if clash.size:
        i = clash[0]
        msg = f"node {ids[i]} relabeled {was[i]!r} -> {labels[i]!r}"
        raise ValidationError(f"{path}:{lines[i]}: {msg}")
    return LabeledPartition.from_labels(len(mapping), dense, labels)


def sorted_lookup(sorted_ids: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``x`` sits in the ascending, distinct ``sorted_ids``:
    ``(position, found)``; a position is meaningful only where found."""
    pos = sorted_ids.searchsorted(x)
    return pos, sorted_ids.searchsorted(x, "right") > pos


def csr_rows(indptr, rows):
    """Flat CSR positions of the lists of ``rows``, in row order, and the
    index in ``rows`` that owns each position."""
    start = indptr[rows]
    cnt = indptr[1:][rows]
    cnt -= start
    owner = np.repeat(np.arange(rows.size), cnt)
    # a row's list begins at start in the graph and at cumsum - cnt here
    start -= cnt.cumsum()
    start += cnt
    # in place, so that at most three position-sized arrays are alive
    pos = np.arange(owner.size)
    pos += start[owner]
    return owner, pos


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, NodeMapping]:
    """Subgraph on ``nodes`` with exactly the edges of ``g`` inside the set."""
    node_arr = np.unique(node_ids("node id", nodes, g.n))
    if node_arr.size == 0:
        raise ValidationError("empty node set")
    sub_id = np.full(g.n, -1, dtype=np.int64)
    sub_id[node_arr] = np.arange(node_arr.size)
    # a member's index in node_arr is its subgraph id
    owner, pos = csr_rows(g._out_indptr, node_arr)
    dst = sub_id[g._out_dst[pos]]
    # the graph mirrors an undirected pair itself, so each is passed once
    keep = dst >= 0 if g.directed else dst >= owner
    sub = Graph(node_arr.size, owner[keep], dst[keep], g._out_w[pos[keep]], g.directed)
    return sub, NodeMapping(sub_to_full=node_arr)
