"""Pluggable compute backends for the nn / gnn kernels.

Every dense/sparse kernel that :mod:`repro.nn.functional` (and through it the
GCN / GAT encoders) relies on is routed through an :class:`OpsBackend`.  The
backend owns exactly the operations whose implementation strategy matters for
performance or hardware portability:

* ``spmm`` / ``spmm_t`` — multiplication by a constant sparse propagation
  matrix (and by its transpose, for the backward pass);
* ``take_rows`` / ``scatter_rows`` — row gather and its duplicate-aware
  adjoint;
* ``segment_sum`` / ``segment_counts`` / ``segment_max`` — unsorted segment
  reductions used by pooling and by the composite (unfused) GAT softmax.

The fused GAT layer does not go through this interface: it runs on the
graph's prepared :class:`~repro.nn.edges.EdgeStructure` (dst-sorted CSR
layout, built once per graph) on every backend that allows fusion.

Three backends ship with the repository:

``numpy`` (default)
    Optimised numpy/scipy kernels: the sparse matrix and its transpose are
    prepared once and cached, and segment reductions go through a cached CSR
    aggregation matrix instead of ``np.add.at`` (which is unbuffered and an
    order of magnitude slower).

``reference``
    The straightforward kernels the original implementation used
    (``np.add.at``, per-call transposes).  Numerically this is the ground
    truth the fast kernels are tested against, and the benchmark harness uses
    it to emulate the pre-refactor execution cost.

``dense``
    Densifies the propagation matrix and uses plain ``@``.  Only sensible for
    small graphs; exists so sparse kernels can be validated against dense
    linear algebra (and as the template for a future torch/GPU backend, which
    only needs to implement this same interface on device tensors).

A fourth backend, ``torch``, is registered automatically when torch is
importable (install the ``repro[torch]`` extra); see
:mod:`repro.nn.torch_backend`.  The numpy backends remain the default and the
parity oracle — torch is an optional accelerator, never a dependency.

Use :func:`set_backend` to switch globally or :func:`use_backend` as a
context manager; :func:`register_backend` installs third-party backends.
"""

from __future__ import annotations

import importlib.util
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..caching import IdentityCache

try:  # scipy's C kernel for multi-vector CSR products (see _spmm_stack)
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older scipy layouts
    _csr_matvecs = None


class PreparedMatrix:
    """A constant sparse matrix pre-converted to CSR with a cached transpose."""

    __slots__ = ("csr", "csr_t", "__weakref__")

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.csr = matrix.tocsr()
        self.csr_t = self.csr.T.tocsr()

    @property
    def shape(self):
        return self.csr.shape


MatrixLike = Union[sp.spmatrix, PreparedMatrix]


class OpsBackend:
    """Interface of a compute backend (the default methods are the reference
    numpy kernels; subclasses override what they can do faster)."""

    name = "abstract"
    #: Whether model-level fast paths (fused pooling matrices, reuse of
    #: constant-input layer outputs across forward passes) may be taken while
    #: this backend is active.  The reference backend keeps it off so that it
    #: executes the un-fused computation graph op for op.
    allow_fused = True

    # ------------------------------------------------------------------ #
    # Sparse matmul
    # ------------------------------------------------------------------ #
    def prepare_matrix(self, matrix: MatrixLike) -> MatrixLike:
        """Pre-process a constant sparse matrix for repeated products."""
        return matrix

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix @ dense`` for a constant sparse ``matrix``."""
        csr = matrix.csr if isinstance(matrix, PreparedMatrix) else matrix.tocsr()
        return csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix.T @ dense`` (the adjoint of :meth:`spmm`)."""
        if isinstance(matrix, PreparedMatrix):
            return matrix.csr_t @ dense
        return matrix.tocsr().T.tocsr() @ dense

    def spmm_many(self, matrix: MatrixLike, dense_stack: np.ndarray) -> np.ndarray:
        """Batched :meth:`spmm` over a stacked ``(K, N, d)`` operand.

        Semantically ``stack([matrix @ dense_stack[k] for k in range(K)])``.
        Fast backends collapse the batch into a single sparse product; the
        default executes the per-slice definition, which doubles as the
        bit-for-bit oracle for the collapsed kernels.
        """
        return np.stack(
            [self.spmm(matrix, dense_stack[k]) for k in range(dense_stack.shape[0])]
        )

    def spmm_t_many(self, matrix: MatrixLike, dense_stack: np.ndarray) -> np.ndarray:
        """Batched :meth:`spmm_t` (the adjoint of :meth:`spmm_many`)."""
        return np.stack(
            [self.spmm_t(matrix, dense_stack[k]) for k in range(dense_stack.shape[0])]
        )

    def fold_chain(self, matrices: Sequence[MatrixLike]) -> MatrixLike:
        """Collapse a chain of constant sparse operators into one operator.

        ``fold_chain([A, B, C])`` returns an operator equal to ``A @ B @ C``
        in a representation the backend's :meth:`spmm` / :meth:`spmm_many`
        accept.  The chain members must all be constants (no gradients flow
        into them), which is exactly the situation for propagation matrices:
        the mean-pool matrix composed with the normalised tree adjacency can
        be precomputed once per tree batch and reused for every epoch and
        every sweep point that shares the construction.
        """
        if not matrices:
            raise ValueError("fold_chain requires at least one matrix")
        product: Optional[sp.csr_matrix] = None
        for matrix in matrices:
            csr = matrix.csr if isinstance(matrix, PreparedMatrix) else sp.csr_matrix(matrix)
            product = csr if product is None else product @ csr
        return self.prepare_matrix(product)

    # ------------------------------------------------------------------ #
    # Row gather / scatter
    # ------------------------------------------------------------------ #
    def take_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``data[index]`` along the first axis."""
        return data[index]

    def scatter_rows(self, values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
        """Adjoint of :meth:`take_rows`: ``out[index[i]] += values[i]``."""
        out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        np.add.at(out, index, values)
        return out

    # ------------------------------------------------------------------ #
    # Segment reductions (unsorted segment ids along the first axis)
    # ------------------------------------------------------------------ #
    def segment_sum(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        """``out[k] = sum_{i: index[i] == k} values[i]``."""
        return self.scatter_rows(values, index, num_segments)

    def segment_counts(self, index: np.ndarray, num_segments: int) -> np.ndarray:
        """Number of rows per segment, as float64."""
        counts = np.zeros(num_segments, dtype=np.float64)
        np.add.at(counts, index, 1.0)
        return counts

    def segment_max(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        """Per-segment elementwise maximum (``-inf`` for empty segments)."""
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        np.maximum.at(out, index, values)
        return out


class ReferenceBackend(OpsBackend):
    """The seed implementation's kernels, kept verbatim as numerical ground
    truth (per-call transposes, unbuffered ``np.add.at`` accumulation)."""

    name = "reference"
    allow_fused = False


class FastNumpyBackend(OpsBackend):
    """Optimised numpy/scipy kernels (the default backend).

    Two caches make the hot paths cheap:

    * :meth:`prepare_matrix` converts a propagation matrix to CSR **once**
      and also stores its transpose, so the backward pass never re-transposes
      (the seed code paid an O(nnz) transpose per backward call);
    * segment reductions (pooling, row gathers' adjoints) build a CSR
      aggregation matrix per distinct index array and reuse it, replacing
      ``np.add.at`` (unbuffered, slow) with the C-optimised sparse matmul.
      The fused GAT layer does not use this cache: its edge layout is the
      explicit :class:`~repro.nn.edges.EdgeStructure` its graph prepares.

    Both caches key on ``id()`` of the input object guarded by a weak
    reference, so entries die with the arrays they describe.  Index arrays
    must therefore not be mutated in place after first use — which holds for
    every caller in this repository (graph structure is constant during
    training).
    """

    name = "numpy"

    def __init__(self) -> None:
        self._matrix_cache = IdentityCache()
        self._segment_cache = IdentityCache()

    # -- sparse matmul -------------------------------------------------- #
    def prepare_matrix(self, matrix: MatrixLike) -> PreparedMatrix:
        if isinstance(matrix, PreparedMatrix):
            return matrix
        prepared = self._matrix_cache.get(matrix)
        if prepared is None:
            prepared = self._matrix_cache.put(matrix, PreparedMatrix(matrix))
        return prepared

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self.prepare_matrix(matrix).csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self.prepare_matrix(matrix).csr_t @ dense

    def spmm_many(self, matrix: MatrixLike, dense_stack: np.ndarray) -> np.ndarray:
        return self._spmm_stack(self.prepare_matrix(matrix).csr, dense_stack)

    def spmm_t_many(self, matrix: MatrixLike, dense_stack: np.ndarray) -> np.ndarray:
        return self._spmm_stack(self.prepare_matrix(matrix).csr_t, dense_stack)

    #: Above this many stacked elements the transpose copies of the
    #: reordered single-kernel form cost more than K kernel launches.
    _SPMM_STACK_REORDER_LIMIT = 1 << 16

    @staticmethod
    def _spmm_stack(csr: sp.csr_matrix, dense_stack: np.ndarray) -> np.ndarray:
        """CSR product applied to all K slices.

        Small stacks are reordered ``(K, N, d) -> (N, K*d)`` so a single
        multi-vector CSR multiply serves every slice; large stacks run one
        kernel per slice, which skips the two transpose copies (each the
        size of the stack) that the reordering needs.  scipy's multi-vector
        kernel accumulates each output column independently in row order —
        exactly the per-slice accumulation order — so both forms produce
        slices bit-identical to ``csr @ dense_stack[k]``.
        """
        num_slices, num_rows, width = dense_stack.shape
        if dense_stack.size > FastNumpyBackend._SPMM_STACK_REORDER_LIMIT:
            if (
                _csr_matvecs is not None
                and csr.dtype == np.float64
                and dense_stack.dtype == np.float64
            ):
                # scipy's multi-vector kernel accumulates ``Y += A @ X`` into
                # a caller-provided buffer (this is exactly how scipy's own
                # ``@`` uses it), so each slice lands directly in the stacked
                # output with no per-slice result copy.
                out = np.zeros((num_slices, csr.shape[0], width), dtype=np.float64)
                for k in range(num_slices):
                    _csr_matvecs(
                        csr.shape[0],
                        num_rows,
                        width,
                        csr.indptr,
                        csr.indices,
                        csr.data,
                        np.ascontiguousarray(dense_stack[k]).ravel(),
                        out[k].ravel(),
                    )
                return out
            return np.stack([csr @ dense_stack[k] for k in range(num_slices)])
        flat = np.ascontiguousarray(dense_stack.transpose(1, 0, 2)).reshape(
            num_rows, num_slices * width
        )
        out = csr @ flat
        return np.ascontiguousarray(
            out.reshape(out.shape[0], num_slices, width).transpose(1, 0, 2)
        )

    # -- segment reductions --------------------------------------------- #
    def _aggregation_matrix(self, index: np.ndarray, num_segments: int) -> sp.csr_matrix:
        matrix = self._segment_cache.get(index, extra=int(num_segments))
        if matrix is None:
            num_rows = index.shape[0]
            matrix = self._segment_cache.put(
                index,
                sp.csr_matrix(
                    (np.ones(num_rows, dtype=np.float64), (index, np.arange(num_rows))),
                    shape=(int(num_segments), num_rows),
                ),
                extra=int(num_segments),
            )
        return matrix

    def scatter_rows(self, values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
        if values.size == 0:
            return np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        matrix = self._aggregation_matrix(index, num_rows)
        if values.ndim <= 2:
            return np.asarray(matrix @ values, dtype=np.float64)
        flat = values.reshape(values.shape[0], -1)
        out = matrix @ flat
        return np.asarray(out, dtype=np.float64).reshape((num_rows,) + values.shape[1:])

    def segment_counts(self, index: np.ndarray, num_segments: int) -> np.ndarray:
        return np.bincount(index, minlength=num_segments).astype(np.float64)


class DenseBackend(OpsBackend):
    """Densifies the propagation matrix; validation / small-graph backend.

    Densified operators are kept in a small byte-budgeted LRU rather than an
    unbounded identity cache: a long sweep visits many tree batches, each
    with its own adjacency, and an unbounded cache would pin every densified
    copy for the lifetime of the backend instance.
    """

    name = "dense"
    #: Total bytes of densified operators kept alive; least-recently-used
    #: entries are evicted past this budget (the newest entry always stays).
    cache_budget_bytes = 32 * 1024 * 1024

    def __init__(self, cache_budget_bytes: Optional[int] = None) -> None:
        if cache_budget_bytes is not None:
            if cache_budget_bytes <= 0:
                raise ValueError("cache_budget_bytes must be positive")
            self.cache_budget_bytes = int(cache_budget_bytes)
        # id(matrix) -> (matrix, dense); the strong reference to the matrix
        # keeps the id stable for the entry's lifetime.
        self._dense_cache: "OrderedDict[int, Tuple[sp.spmatrix, np.ndarray]]" = OrderedDict()
        self._dense_cache_bytes = 0

    def _densify(self, matrix: MatrixLike) -> np.ndarray:
        if isinstance(matrix, PreparedMatrix):
            matrix = matrix.csr
        key = id(matrix)
        entry = self._dense_cache.get(key)
        if entry is not None and entry[0] is matrix:
            self._dense_cache.move_to_end(key)
            return entry[1]
        dense = np.asarray(matrix.todense(), dtype=np.float64)
        self._dense_cache[key] = (matrix, dense)
        self._dense_cache_bytes += dense.nbytes
        while (
            self._dense_cache_bytes > self.cache_budget_bytes
            and len(self._dense_cache) > 1
        ):
            _, (_, evicted) = self._dense_cache.popitem(last=False)
            self._dense_cache_bytes -= evicted.nbytes
        return dense

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self._densify(matrix) @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self._densify(matrix).T @ dense


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], OpsBackend]] = {
    "numpy": FastNumpyBackend,
    "reference": ReferenceBackend,
    "dense": DenseBackend,
}
_instances: Dict[str, OpsBackend] = {}
_active: Optional[OpsBackend] = None


def register_backend(name: str, factory: Callable[[], OpsBackend]) -> None:
    """Install a third-party backend factory (e.g. a torch/GPU backend)."""
    _FACTORIES[name] = factory
    _instances.pop(name, None)


def available_backends() -> list:
    """Names of all registered backends."""
    return sorted(_FACTORIES)


def _instantiate(name: str) -> OpsBackend:
    if name not in _FACTORIES:
        raise KeyError(f"unknown backend '{name}'; available: {available_backends()}")
    if name not in _instances:
        _instances[name] = _FACTORIES[name]()
    return _instances[name]


def get_backend() -> OpsBackend:
    """Return the active compute backend (default: the fast numpy backend)."""
    global _active
    if _active is None:
        _active = _instantiate("numpy")
    return _active


def resolve_backend(backend: Union[str, OpsBackend]) -> OpsBackend:
    """Return the backend instance for a name *without* activating it."""
    return _instantiate(backend) if isinstance(backend, str) else backend


def set_backend(backend: Union[str, OpsBackend]) -> OpsBackend:
    """Switch the active backend globally; returns the new active backend."""
    global _active
    _active = _instantiate(backend) if isinstance(backend, str) else backend
    return _active


@contextmanager
def use_backend(backend: Union[str, OpsBackend]) -> Iterator[OpsBackend]:
    """Context manager that temporarily switches the active backend.

    The previous backend is restored on *every* exit path — including an
    exception raised by the body or by the switch itself — so a failing
    sweep point can never leak its backend into the next one.
    """
    global _active
    previous = get_backend()
    try:
        yield set_backend(backend)
    finally:
        _active = previous


# --------------------------------------------------------------------------- #
# Optional backends
# --------------------------------------------------------------------------- #
def _torch_backend_factory() -> OpsBackend:
    from .torch_backend import TorchBackend

    return TorchBackend()


if importlib.util.find_spec("torch") is not None:  # pragma: no cover - env-dependent
    register_backend("torch", _torch_backend_factory)
