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

import itertools
import math
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
    _flat: np.ndarray = field(init=False, repr=False)  # C-order flat positions

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
        multi = tuple(self.indices.T)
        self._flat = np.ravel_multi_index(multi, self.shape)
        # entries listed in C order (np.argwhere) or first-index-fastest order
        # (every dense tensor written to COO) have strictly increasing
        # positions in that order, which rules out duplicates without a sort
        if not (np.diff(self._flat) > 0).all():
            f_order = np.ravel_multi_index(multi, self.shape, order="F")
            if not (np.diff(f_order) > 0).all() and np.unique(f_order).size != self.nnz:
                raise ValueError("duplicate indices in sparse tensor")

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Values of dense ``x`` at the observed positions."""
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {self.shape}")
        return np.take(x, self._flat)

    def to_dense(self, values=None) -> np.ndarray:
        """Dense tensor of ``values``' dtype with ``values`` (default: the
        observed values) at the observed positions and zeros elsewhere."""
        values = self.values if values is None else np.asarray(values)
        out = np.zeros(self.shape, dtype=values.dtype)
        np.put(out, self._flat, values)
        return out


# --- COO text format -------------------------------------------------------
#
# Header line:  # shape: I1xI2x...xIN
# Entry lines:  i1,i2,...,iN,value      (1-based indices)

_CHUNK_LINES = 8192  # entry lines joined per write: whole-file strings cost memory


def _format_header(shape) -> str:
    return "# shape: " + "x".join(str(s) for s in shape)


def _write_coo(path, shape, columns, values) -> None:
    """Write the header and one line per entry. ``columns`` holds the
    entries' 0-based indices, one array per dimension; values are written as
    the ``repr`` of Python floats, so they read back bitwise."""
    values = np.asarray(values, dtype=np.float64)
    nnz = values.size
    # index strings looked up per dimension; a dimension longer than the
    # entry list formats its indices one by one instead
    tables = [[str(i + 1) for i in range(s)] if s <= nnz else None for s in shape]
    with open(path, "w") as fh:
        fh.write(_format_header(shape) + "\n")
        for lo in range(0, nnz, _CHUNK_LINES):
            hi = lo + _CHUNK_LINES
            fields = [map(table.__getitem__, col[lo:hi].tolist()) if table
                      else (str(i + 1) for i in col[lo:hi].tolist())
                      for table, col in zip(tables, columns)]
            fields.append(map(repr, values[lo:hi].tolist()))
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_coo_sparse(path, t: SparseTensor) -> None:
    """Write a sparse tensor in the COO text format."""
    _write_coo(path, t.shape, t.indices.T, t.values)


def write_coo_dense(path, x: np.ndarray) -> None:
    """Write a dense tensor with full support in the COO text format,
    first index fastest."""
    dims = validate_shape(x.shape)
    _write_coo(path, dims, np.unravel_index(np.arange(x.size), dims, order="F"),
               x.ravel(order="F"))


def read_coo(path) -> SparseTensor:
    """Read a tensor in the COO text format (see module docstring).

    The entries are parsed as one array. A file that parse does not take,
    or whose entries fail a check, is read again line by line; a malformed
    header or entry then raises ``ValueError`` naming ``path:line``.
    """
    path = Path(path)
    try:
        return _parse_coo_array(path)
    except ValueError:  # the line parser is the only judge of a file in doubt
        return _parse_coo_lines(path)


def _is_header(line: str) -> bool:
    """Whether a stripped line that starts with ``#`` is a ``# shape:`` header."""
    return line[1:].strip().startswith("shape:")


def _parse_shape(line: str) -> tuple[int, ...]:
    text = line[1:].strip()[len("shape:") :].strip()
    try:
        dims = tuple(int(s) for s in text.split("x"))
    except ValueError:
        raise ValueError(f"bad shape {text!r}") from None
    return validate_shape(dims)


def _parse_coo_array(path: Path) -> SparseTensor:
    """All entry lines in one ``np.loadtxt`` call. Raises on anything the
    line parser could read differently: an entry before or a second header,
    an entry line that is not printable ASCII (numpy and Python disagree on
    some other characters), no entries, a non-finite value, or an entry
    ``SparseTensor`` rejects."""
    with open(path) as fh:
        shape = None
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                if _is_header(line):
                    shape = _parse_shape(line)
                    break
            elif line:
                raise ValueError("entry before the header")
        if shape is None:
            raise ValueError("no header")

        def entries():
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line[0] == "#":
                    if _is_header(line):
                        raise ValueError("second header")
                    continue
                if not (line.isascii() and line.isprintable()):
                    raise ValueError("entry line the array parse does not take")
                yield line

        lines = entries()
        first = next(lines, None)
        if first is None:
            raise ValueError("no entries")  # loadtxt warns on no data
        table = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                           dtype=[("idx", np.intp, (len(shape),)), ("val", np.float64)],
                           ndmin=1)
    values = np.ascontiguousarray(table["val"])
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return SparseTensor(shape, table["idx"] - 1, values)


def _parse_coo_lines(path: Path) -> SparseTensor:
    """One line at a time, naming ``path:line`` for the first problem."""
    shape = header_line = None
    entry_lines: list[int] = []
    idx_rows: list[list[int]] = []
    vals: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if _is_header(line):
                    if shape is not None:
                        raise ValueError(f"{path}:{lineno}: second '# shape:' header "
                                         f"(first at line {header_line})")
                    try:
                        shape = _parse_shape(line)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
                    header_line = lineno
                continue
            parts = line.split(",")
            if shape is None:
                raise ValueError(f"{path}:{lineno}: entry before '# shape:' header")
            if len(parts) != len(shape) + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {len(shape) + 1} fields, got {len(parts)}"
                )
            try:
                value = float(parts[-1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {parts[-1].strip()!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {parts[-1].strip()!r}")
            try:
                idx_rows.append([int(p) - 1 for p in parts[:-1]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad index in {line!r}") from None
            vals.append(value)
            entry_lines.append(lineno)
    if shape is None:
        raise ValueError(f"{path}: missing '# shape:' header")
    # every entry's range is checked before any entry is checked for repeats
    for row, lineno in zip(idx_rows, entry_lines):
        if not all(0 <= i < s for i, s in zip(row, shape)):
            shape_text = "x".join(str(s) for s in shape)
            raise ValueError(f"{path}:{lineno}: index out of range for shape {shape_text}")
    first_at: dict[tuple[int, ...], int] = {}
    for row, lineno in zip(idx_rows, entry_lines):
        first = first_at.setdefault(tuple(row), lineno)
        if first != lineno:
            index_text = ",".join(str(i + 1) for i in row)
            raise ValueError(f"{path}:{lineno}: duplicate index {index_text} "
                             f"(first at line {first})")
    indices = np.array(idx_rows, dtype=np.intp).reshape(len(vals), len(shape))
    return SparseTensor(shape, indices, np.array(vals))
