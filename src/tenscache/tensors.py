"""N-order tensor primitives: sparse observations, circular unfolding, COO text I/O.

Dense tensors are plain ``numpy.ndarray`` objects of order >= 3. Whenever a
multi-index group ``(i_a, ..., i_k)`` is flattened into a single row or column
index, the first listed index varies fastest (column-major convention). This
single convention is what makes ``fold(unfold(x, s), s, x.shape) == x`` hold
exactly, and it is also the order used when a dense tensor is written entry by
entry to the COO text format.

A circular unfolding ``(k, d)`` groups the ``d`` cyclically consecutive modes
ending at mode ``k`` into matrix rows and the remaining ``N - d`` modes into
columns. Modes are numbered 1..N throughout the public API; COO files use
1-based indices as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SparseTensor",
    "UnfoldSpec",
    "fold",
    "read_coo",
    "unfold",
    "validate_shape",
    "write_coo_dense",
    "write_coo_sparse",
]


def validate_shape(shape) -> tuple[int, ...]:
    """Check that ``shape`` describes an order >= 3 tensor with positive dims."""
    dims = tuple(int(s) for s in shape)
    if len(dims) < 3:
        raise ValueError(f"tensor order must be >= 3, got {len(dims)}")
    if any(s < 1 for s in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class UnfoldSpec:
    """Circular unfolding along ``mode`` with ``shift`` grouped row modes.

    ``mode`` is 1-based. ``shift`` must lie in ``1..N-1``: rows collect the
    ``shift`` cyclically consecutive modes ending at ``mode`` (starting at
    ``mode - shift + 1``, wrapped into range), columns collect the rest.
    """

    mode: int
    shift: int

    def axes_order(self, order: int) -> list[int]:
        """0-based axis permutation (row axes first, then column axes)."""
        if not 1 <= self.mode <= order:
            raise ValueError(f"mode {self.mode} out of range for order {order}")
        if not 1 <= self.shift <= order - 1:
            raise ValueError(f"shift {self.shift} must be in 1..{order - 1}")
        first = (self.mode - self.shift) % order
        return [(first + j) % order for j in range(order)]

    def matrix_dims(self, shape) -> tuple[int, int]:
        """(rows, cols) of the unfolding of a tensor with ``shape``."""
        dims = validate_shape(shape)
        perm = self.axes_order(len(dims))
        rows = int(np.prod([dims[p] for p in perm[: self.shift]]))
        cols = int(np.prod([dims[p] for p in perm[self.shift :]]))
        return rows, cols


def unfold(x: np.ndarray, spec: UnfoldSpec) -> np.ndarray:
    """Circularly unfold dense tensor ``x`` into a matrix.

    Element ``(r, c)`` with ``r`` flattening ``(i_a, ..., i_k)`` first-fastest
    and ``c`` flattening ``(i_{k+1}, ..., i_{a-1})`` equals ``x[i_1, ..., i_N]``.
    """
    dims = validate_shape(x.shape)
    perm = spec.axes_order(len(dims))
    rows, cols = spec.matrix_dims(dims)
    return np.transpose(x, perm).reshape((rows, cols), order="F")


def fold(m: np.ndarray, spec: UnfoldSpec, shape) -> np.ndarray:
    """Exact inverse of :func:`unfold` under the same flattening convention."""
    dims = validate_shape(shape)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    rows, cols = spec.matrix_dims(dims)
    if m.shape != (rows, cols):
        raise ValueError(f"matrix shape {m.shape} incompatible with unfolding dims {(rows, cols)}")
    perm = spec.axes_order(len(dims))
    t = m.reshape([dims[p] for p in perm], order="F")
    return np.transpose(t, np.argsort(perm))


@dataclass
class SparseTensor:
    """Observed entries of an N-order tensor in COO form.

    The index list doubles as the observation mask: every listed position is
    observed (values may legitimately be zero, e.g. after adding noise to a
    zero truth entry). Indices are stored 0-based, shape order >= 3, and
    duplicate positions are rejected rather than summed so that ingestion
    bugs surface immediately.
    """

    shape: tuple[int, ...]
    indices: np.ndarray  # (nnz, N) int
    values: np.ndarray  # (nnz,) float
    _flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.shape = validate_shape(self.shape)
        self.indices = np.atleast_2d(np.asarray(self.indices, dtype=np.intp))
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        n = len(self.shape)
        if self.indices.ndim != 2 or self.indices.shape[1] != n:
            raise ValueError(f"indices must be (nnz, {n}), got {self.indices.shape}")
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError("indices and values length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or (self.indices >= np.array(self.shape)).any()
        ):
            raise ValueError("index out of range")
        flat = np.ravel_multi_index(tuple(self.indices.T), self.shape, order="F")
        if np.unique(flat).size != flat.size:
            raise ValueError("duplicate indices in sparse tensor")
        self._flat = flat

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def mask_tuple(self) -> tuple[np.ndarray, ...]:
        """Index tuple usable for numpy fancy indexing into a dense array."""
        return tuple(self.indices.T)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Values of dense ``x`` at the observed positions."""
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {self.shape}")
        return x[self.mask_tuple()]

    def to_dense(self) -> np.ndarray:
        """Dense tensor with observed values embedded and zeros elsewhere."""
        out = np.zeros(self.shape)
        out[self.mask_tuple()] = self.values
        return out


# --- COO text format -------------------------------------------------------
#
# Header line:  # shape: I1xI2x...xIN
# Entry lines:  i1,i2,...,iN,value      (1-based indices)


def _format_header(shape) -> str:
    return "# shape: " + "x".join(str(s) for s in shape)


def write_coo_sparse(path, t: SparseTensor) -> None:
    """Write a sparse tensor in the COO text format."""
    with open(path, "w") as fh:
        fh.write(_format_header(t.shape) + "\n")
        for row, val in zip(t.indices, t.values):
            fh.write(",".join(str(int(i) + 1) for i in row) + f",{float(val)!r}\n")


def write_coo_dense(path, x: np.ndarray) -> None:
    """Write a dense tensor with full support in the COO text format."""
    dims = validate_shape(x.shape)
    flat = np.arange(x.size)
    idx = np.stack(np.unravel_index(flat, dims, order="F"), axis=1)
    write_coo_sparse(path, SparseTensor(dims, idx, x.ravel(order="F")))


def read_coo(path) -> SparseTensor:
    """Read a tensor in the COO text format (see module docstring)."""
    path = Path(path)
    shape = None
    idx_rows: list[list[int]] = []
    vals: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("shape:"):
                    shape = tuple(int(s) for s in body[len("shape:") :].strip().split("x"))
                continue
            parts = line.split(",")
            if shape is None:
                raise ValueError(f"{path}:{lineno}: entry before '# shape:' header")
            if len(parts) != len(shape) + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {len(shape) + 1} fields, got {len(parts)}"
                )
            idx_rows.append([int(p) - 1 for p in parts[:-1]])
            vals.append(float(parts[-1]))
    if shape is None:
        raise ValueError(f"{path}: missing '# shape:' header")
    indices = np.array(idx_rows, dtype=np.intp).reshape(len(vals), len(shape))
    return SparseTensor(shape, indices, np.array(vals))
