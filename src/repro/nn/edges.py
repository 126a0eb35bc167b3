"""Prepared edge structure for edge-wise graph kernels (GAT attention).

A GAT layer reduces per-edge values over the incoming edges of each
destination (segment max and sum of the attention softmax) and aggregates
source rows into destinations weighted by the attention.  Both are cheapest
over edges sorted by destination: the segment max is a ``reduceat`` over
contiguous runs, segment sums and the weighted aggregation are CSR products,
and per-destination values reach their edges through ``np.repeat``.
:class:`EdgeStructure` computes that layout **once per graph** and validates
the edge index on the way, so every forward and backward pass of every epoch
reuses it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel for multi-vector CSR products (see _csr_product)
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older scipy layouts
    _csr_matvecs = None


class EdgeStructure:
    """A validated ``(2, E)`` edge index (``src -> dst``) in CSR layout.

    Every per-edge array the kernels exchange with this class is in
    destination-sorted edge order.  Attributes (int64 arrays unless noted):

    * ``src`` / ``dst`` — the edge index rows in their original order (the
      composite reference path consumes these unchanged);
    * ``indptr`` / ``indices`` — the aggregation matrix ``A[dst, src]`` in
      CSR form: edges sorted by destination (stable, so duplicate edges keep
      their relative order) and ``indices`` the source of each sorted edge;
      ``counts`` is the in-degree of every node;
    * ``dst_starts`` / ``dst_lengths`` — offset and length of every
      non-empty destination run (``reduceat`` cannot express empty runs);
    * ``transpose_order`` / ``transpose_indptr`` / ``transpose_indices`` —
      the transpose ``Aᵀ`` in CSR form: ``transpose_order`` permutes the
      dst-sorted edges into src-sorted order;
    * ``edge_ids`` / ``unit_weights`` (float64) — ``arange(E)`` and
      ``ones(E)``, the CSR indices and data of the segment-sum operators.

    Raises ``ValueError`` unless the edge index has shape ``(2, E)``, an
    integer dtype and every entry in ``[0, num_nodes)``.
    """

    __slots__ = (
        "num_nodes",
        "src",
        "dst",
        "indptr",
        "indices",
        "counts",
        "dst_starts",
        "dst_lengths",
        "transpose_order",
        "transpose_indptr",
        "transpose_indices",
        "edge_ids",
        "unit_weights",
    )

    def __init__(self, edge_index: np.ndarray, num_nodes: int) -> None:
        edge_index = np.asarray(edge_index)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
        if not np.issubdtype(edge_index.dtype, np.integer):
            raise ValueError(f"edge_index must have an integer dtype, got {edge_index.dtype}")
        num_nodes = int(num_nodes)
        if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= num_nodes):
            raise ValueError(
                f"edge_index entries must lie in [0, {num_nodes}), got "
                f"[{edge_index.min()}, {edge_index.max()}]"
            )
        self.num_nodes = num_nodes
        self.src, self.dst = edge_index.astype(np.int64, copy=False)

        self.indices = self.src[np.argsort(self.dst, kind="stable")]
        self.counts = np.bincount(self.dst, minlength=num_nodes)
        self.indptr = _indptr(self.counts)
        nonempty = self.counts > 0
        self.dst_starts = self.indptr[:-1][nonempty]
        self.dst_lengths = self.counts[nonempty]

        self.transpose_order = np.argsort(self.indices, kind="stable")
        sorted_dst = np.repeat(np.arange(num_nodes, dtype=np.int64), self.counts)
        self.transpose_indices = sorted_dst[self.transpose_order]
        self.transpose_indptr = _indptr(np.bincount(self.src, minlength=num_nodes))
        # Segment sums are CSR products with unit weights over the edge ids:
        # scipy's kernel beats ``np.add.reduceat`` several times over on
        # short runs, and per destination it adds in the original edge order,
        # as the reference backend's ``np.add.at`` does.
        self.edge_ids = np.arange(self.num_edges, dtype=np.int64)
        self.unit_weights = np.ones(self.num_edges, dtype=np.float64)

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def expand(self, per_node: np.ndarray) -> np.ndarray:
        """Rows ``per_node[dst]``: broadcast per-node rows to their edges."""
        return np.repeat(per_node, self.counts, axis=0)

    def gather_sources(self, per_node: np.ndarray) -> np.ndarray:
        """Rows ``per_node[src]``."""
        return np.take(per_node, self.indices, axis=0)

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        """Maximum of ``values`` over each destination's incoming edges,
        broadcast back to those edges."""
        reduced = np.maximum.reduceat(values, self.dst_starts, axis=0)
        return np.repeat(reduced, self.dst_lengths, axis=0)

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` ``(E, k)`` into their destinations ``(N, k)``."""
        return _csr_product(self.indptr, self.edge_ids, self.unit_weights, values)

    def transpose_segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` ``(E, k)`` into their sources ``(N, k)``."""
        return _csr_product(
            self.transpose_indptr, self.transpose_order, self.unit_weights, values
        )

    def aggregate(
        self, weights: np.ndarray, dense: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``A @ dense`` where ``A[dst, src]`` carries the per-edge ``weights``."""
        return _csr_product(self.indptr, self.indices, weights, dense, out)

    def aggregate_t(
        self, weights: np.ndarray, dense: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``Aᵀ @ dense`` for the same ``A`` as :meth:`aggregate`."""
        return _csr_product(
            self.transpose_indptr,
            self.transpose_indices,
            weights[self.transpose_order],
            dense,
            out,
        )


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _csr_product(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    dense: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``CSR(data, indices, indptr) @ dense`` for a 2-D ``dense``.

    Accumulates into ``out`` (C-contiguous, zero-filled) when given.  Calls
    scipy's kernel directly: building a ``csr_matrix`` per call costs more
    than the product at GAT sizes, and the data changes with every call.
    """
    num_rows = indptr.shape[0] - 1
    num_cols, width = dense.shape
    if out is None:
        out = np.zeros((num_rows, width), dtype=np.float64)
    if _csr_matvecs is None:  # pragma: no cover - older scipy layouts
        out += sp.csr_matrix((data, indices, indptr), shape=(num_rows, num_cols)) @ dense
        return out
    _csr_matvecs(
        num_rows,
        num_cols,
        width,
        indptr,
        indices,
        np.ascontiguousarray(data, dtype=np.float64),
        np.ascontiguousarray(dense, dtype=np.float64).ravel(),
        out.ravel(),
    )
    return out
