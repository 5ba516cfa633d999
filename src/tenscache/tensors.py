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

import functools
import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
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
    # F-contiguous even where unit dims let the reshape return a view laid out otherwise:
    # the SVD's products, hence its rounding, follow the layout
    return np.asfortranarray(np.transpose(x, perm).reshape((rows, cols), order="F"))


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
        # entries listed in C order (np.argwhere) or first-index-fastest order
        # (every dense tensor written to COO) have strictly increasing
        # positions in that order, which rules out duplicates without a sort
        if not (np.diff(np.ravel_multi_index(multi, self.shape)) > 0).all():
            f_order = np.ravel_multi_index(multi, self.shape, order="F")
            if not (np.diff(f_order) > 0).all() and np.unique(f_order).size != self.nnz:
                raise ValueError("duplicate indices in sparse tensor")

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_dense(self, values=None) -> np.ndarray:
        """Dense tensor of ``values``' dtype with ``values`` (default: the
        observed values) at the observed positions and zeros elsewhere."""
        values = self.values if values is None else np.asarray(values)
        out = np.zeros(self.shape, dtype=values.dtype)
        out[tuple(self.indices.T)] = values
        return out


# --- COO text format -------------------------------------------------------
#
# Header line:  # shape: I1xI2x...xIN
# Entry lines:  i1,i2,...,iN,value      (1-based indices)

_CHUNK_LINES = 8192  # entry lines formed per write: whole-file buffers cost memory
_LEAD_LINES = 64  # a dense write's block holds at least this many lines: each costs a join
# what a plain COO body holds: printable ASCII but the space and "#", and newlines
_PLAIN = bytes(range(0x21, 0x7F)).replace(b"#", b"") + b"\n"
_PLAIN_CHUNK = 1 << 16  # characters of a body checked at a time


def _format_header(shape) -> str:
    return "# shape: " + "x".join(str(s) for s in shape)


def _dense_lines(shape, values) -> Iterator[str]:
    """The entry lines of a dense tensor of ``shape`` whose entries, first
    index fastest, are ``values``: a batch of at least ``_CHUNK_LINES`` of
    them at a time (the last batch may be shorter).

    The lead modes are the fewest first modes whose index strings
    ``i1,...,im`` number at least ``_LEAD_LINES`` (all modes if they number
    fewer); a block is the lines that share their other, trailing indices.
    A block line whose value has an all-zero bit pattern reads
    ``lead,trail,0.0``, so a run of them is one ``str.join`` of the lead
    strings with the block's ``,trail,0.0`` line end between them. Every
    other line (``-0.0`` and each NaN among them) is formed on its own with
    the ``repr`` of its value. A mostly-zero tensor, such as a demand slot,
    thus costs about a join per block and per nonzero entry, and a format
    per nonzero entry; nothing is kept between calls."""
    lead = [str(i) for i in range(1, shape[0] + 1)]
    modes = 1
    while modes < len(shape) and len(lead) < _LEAD_LINES:
        lead = [f"{a},{i}" for i in range(1, shape[modes] + 1) for a in lead]
        modes += 1
    n = len(lead)
    blocks = values.size // n
    per_batch = -(-_CHUNK_LINES // n)
    nonzero = np.flatnonzero(values.view(np.int64))
    starts = np.searchsorted(nonzero, np.arange(0, values.size + 1, n)).tolist()  # per block
    trails = itertools.product(*(range(1, s + 1) for s in reversed(shape[modes:])))
    for first in range(0, blocks, per_batch):
        last = min(first + per_batch, blocks)
        batch = nonzero[starts[first] : starts[last]]
        offsets, entries = (batch % n).tolist(), values[batch].tolist()
        pieces = []
        for b, trail in zip(range(first, last), trails):
            tail = "".join(f",{i}" for i in reversed(trail)) + ","
            line_end = tail + "0.0\n"
            at = 0
            lo, hi = starts[b] - starts[first], starts[b + 1] - starts[first]
            for j, value in zip(offsets[lo:hi], entries[lo:hi]):
                if j > at:
                    pieces += line_end.join(lead[at:j]), line_end
                pieces.append(f"{lead[j]}{tail}{value!r}\n")
                at = j + 1
            if at < n:
                pieces += line_end.join(lead[at:]), line_end
        yield "".join(pieces)


def write_coo_sparse(path, t: SparseTensor) -> None:
    """Write a sparse tensor in the COO text format: one line per entry, in
    ``t``'s entry order, its value the ``repr`` of a Python float, so it
    reads back bitwise. Each dimension's table holds the 1-based strings of
    the indices its entries use (so a dimension far longer than the entry
    list costs no more than a short one) and each entry's place in it,
    formed once per call; ``_CHUNK_LINES`` lines are joined per write."""
    tables = [(np.array([str(i) for i in (used + 1).tolist()], dtype=object), places)
              for used, places in (np.unique(col, return_inverse=True) for col in t.indices.T)]
    with open(path, "w") as fh:
        fh.write(_format_header(t.shape) + "\n")
        for lo in range(0, t.nnz, _CHUNK_LINES):
            fields = [strings[places[lo : lo + _CHUNK_LINES]].tolist() for strings, places in tables]
            fields.append(map(repr, t.values[lo : lo + _CHUNK_LINES].tolist()))
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_coo_dense(path, x: np.ndarray) -> None:
    """Write a dense tensor with full support in the COO text format,
    first index fastest, its lines formed by :func:`_dense_lines`: the
    lines :func:`write_coo_sparse` forms for the same entries in that order."""
    dims = validate_shape(x.shape)
    with open(path, "w") as fh:
        fh.write(_format_header(dims) + "\n")
        fh.writelines(_dense_lines(dims, np.asarray(x, dtype=np.float64).ravel(order="F")))


def read_coo(path) -> SparseTensor:
    """Read a tensor in the COO text format (see module docstring).

    A file in the form the writers give it (the header on its first line,
    then a plain body) is parsed as one array. Any other file, or one whose
    entries fail a check, is read line by line; a malformed header or entry
    then raises ``ValueError`` naming ``path:line``.
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
    """The file in the form the writers give it, its entry lines in one
    ``np.loadtxt`` call. Raises on any other file, which :func:`read_coo`
    then leaves to the line parser: a first line that is not a ``# shape:``
    header, a body that is not plain, no entries, a ``loadtxt`` error,
    warning or overflow (numpy < 2 reads an index such as ``1.0`` or ``1e0``
    with only a ``DeprecationWarning``), a non-finite value, or an entry
    ``SparseTensor`` rejects.

    The body after the header is checked ``_PLAIN_CHUNK`` characters at a
    time, then read again from its start. A plain body (ASCII, no ``#`` and
    no space, printable once its newlines are removed: nothing but the bytes
    of ``_PLAIN``) has no comment and nothing to strip, so ``loadtxt`` reads
    it from the open file, its lines as they are (it skips the empty ones),
    and the text is never held whole. Lines are split as iterating the file
    splits them: at newlines alone, once universal newlines have turned each
    CR LF and lone CR into one."""
    with open(path) as fh:
        line = fh.readline().strip()
        if not (line.startswith("#") and _is_header(line)):
            raise ValueError("first line is not the header")
        shape = _parse_shape(line)
        start = fh.tell()
        if not all(chunk.isascii() and not chunk.encode("ascii").translate(None, _PLAIN)
                   for chunk in iter(functools.partial(fh.read, _PLAIN_CHUNK), "")):
            raise ValueError("body is not plain")
        fh.seek(start)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data" among them
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                   dtype=[("idx", np.intp, (len(shape),)), ("val", np.float64)])
        except (OverflowError, Warning) as exc:
            raise ValueError(f"loadtxt: {exc}") from None
    values = np.ascontiguousarray(table["val"])
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    indices = table["idx"] - 1
    del table  # the tensor's checks below do not also hold the parsed rows
    return SparseTensor(shape, indices, values)


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
