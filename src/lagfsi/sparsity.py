"""Fixed CSC sparsity patterns and the int32 slot maps that fill them.

Every matrix of the method lives on one reference mesh, so its sparsity
pattern never changes.  A pattern is built once from the element-to-dof
tables; an assembly then only sums element entries into the pattern's data
slots with one ``np.bincount`` and wraps the data on the shared index arrays.

Vector dofs interleave components node-major (dof = node * k + comp), so a
vector pattern is the scalar node graph with each entry widened into a
k x k block (``expand``) or into its diagonal (``expand_diagonal``): the
sort runs on the scalar graph only.
"""

import numpy as np
import scipy.sparse as sp

INDEX = np.int32


def _offsets(counts):
    """[0, cumsum(counts)] as INDEX."""
    out = np.zeros(len(counts) + 1, dtype=INDEX)
    np.cumsum(counts, out=out[1:])
    return out


class Pattern:
    """CSC structure of a `shape` matrix: int32 `indptr` and `indices`, rows
    sorted and unique within each column."""

    def __init__(self, shape, indptr, indices):
        self.shape = tuple(int(n) for n in shape)
        self.indptr = np.asarray(indptr, dtype=INDEX)
        self.indices = np.asarray(indices, dtype=INDEX)

    @classmethod
    def of(cls, A):
        """The pattern of a canonical CSC matrix."""
        return cls(A.shape, A.indptr, A.indices)

    @property
    def nnz(self):
        return len(self.indices)

    def columns(self):
        """Column of every slot."""
        return np.repeat(np.arange(self.shape[1], dtype=INDEX), np.diff(self.indptr))

    def matrix(self, data):
        """CSC matrix with this pattern and `data`, sharing the index arrays."""
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


class Assembly:
    """Fills a Pattern from element matrices: entry e of a raveled element
    array is summed into slot `slot[e]` of `base`.  With `gather` set the
    assembled matrix is `pattern`, whose slot t carries base slot gather[t]
    (base (x) I_k for scalar element matrices acting on k components alike)."""

    def __init__(self, base, slot, pattern=None, gather=None):
        self.base = base
        self.slot = slot.ravel()
        self.pattern = base if pattern is None else pattern
        self.gather = gather

    def base_matrix(self, elem):
        return self.base.matrix(np.bincount(self.slot, elem.ravel(), minlength=self.base.nnz))

    def matrix(self, elem):
        data = np.bincount(self.slot, elem.ravel(), minlength=self.base.nnz)
        return self.pattern.matrix(data if self.gather is None else data[self.gather])


def element_pattern(row_dofs, col_dofs, shape):
    """Pattern of the matrix summed from element matrices whose entry (c, a, b)
    sits at (row_dofs[c, a], col_dofs[c, b]), and the slot of every entry,
    shape (nc, nr, ncc)."""
    nrow, ncol = shape
    key_type = INDEX if nrow * ncol < 2**31 else np.int64
    keys = (col_dofs.astype(key_type)[:, None, :] * nrow
            + row_dofs.astype(key_type)[:, :, None]).ravel()
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    slot = np.empty(len(keys), dtype=INDEX)
    slot[order] = np.cumsum(first) - 1
    uniq = ordered[first]
    cols = uniq // nrow
    pattern = Pattern(shape, _offsets(np.bincount(cols, minlength=ncol)), uniq - cols * nrow)
    return pattern, slot.reshape(len(row_dofs), -1, col_dofs.shape[1])


def expand(pattern, slot, kr, kc):
    """Widen each entry of a scalar pattern into a full kr x kc block.

    `slot` holds the scalar slots of element matrices (nc, nr, ncc); returns
    the vector pattern and the slots of element matrices (nc, nr, kr, ncc, kc).
    Column (b, j) lists rows (a, i) for the rows a of scalar column b, so the
    entry ((a, i), (b, j)) of scalar slot s sits at base[s] + j * step[s] + i.
    """
    if kr == kc == 1:
        return pattern, slot
    counts = np.diff(pattern.indptr)
    cols = pattern.columns()
    base = pattern.indptr[cols] * (kr * (kc - 1)) + np.arange(pattern.nnz, dtype=INDEX) * kr
    step = counts[cols] * kr
    i = np.arange(kr, dtype=INDEX)
    j = np.arange(kc, dtype=INDEX)
    pos = base[:, None, None] + j[:, None] * step[:, None, None] + i
    indices = np.empty(pattern.nnz * kr * kc, dtype=INDEX)
    indices[pos.ravel()] = np.broadcast_to((pattern.indices[:, None] * kr + i)[:, None, :],
                                           pos.shape).ravel()
    indptr = _offsets(np.repeat(counts * kr, kc))
    shape = (pattern.shape[0] * kr, pattern.shape[1] * kc)
    s = slot[:, :, None, :, None]
    vslot = base[s] + j * step[s] + i[:, None, None]
    return Pattern(shape, indptr, indices), vslot


def expand_diagonal(pattern, k):
    """The pattern of `pattern` (x) I_k, and for each of its slots the scalar
    slot whose value it carries."""
    counts = np.repeat(np.diff(pattern.indptr), k)
    indptr = _offsets(counts)
    vcols = np.repeat(np.arange(len(counts), dtype=INDEX), counts)
    gather = pattern.indptr[vcols // k] + np.arange(indptr[-1], dtype=INDEX) - indptr[vcols]
    shape = (pattern.shape[0] * k, pattern.shape[1] * k)
    return Pattern(shape, indptr, pattern.indices[gather] * k + vcols % k), gather


def transpose(pattern):
    """Pattern of the transpose, and for each of its slots the slot of
    `pattern` it carries."""
    order = np.argsort(pattern.indices, kind="stable").astype(INDEX)
    indptr = _offsets(np.bincount(pattern.indices, minlength=pattern.shape[0]))
    return Pattern(pattern.shape[::-1], indptr, pattern.columns()[order]), order


def restrict(pattern, rows=None, cols=None):
    """Sub-pattern on kept rows and columns: `rows` / `cols` map each row /
    column to its new index, increasing, or -1 to drop it (None keeps all).
    Returns it with the slot of `pattern` each of its slots carries."""
    r, c = pattern.indices, pattern.columns()
    keep = np.ones(pattern.nnz, dtype=bool)
    nrow, ncol = pattern.shape
    if rows is not None:
        r = rows[r]
        keep &= r >= 0
        nrow = int(rows.max()) + 1
    if cols is not None:
        c = cols[c]
        keep &= c >= 0
        ncol = int(cols.max()) + 1
    src = np.flatnonzero(keep).astype(INDEX)
    indptr = _offsets(np.bincount(c[src], minlength=ncol))
    return Pattern((nrow, ncol), indptr, r[src]), src


def locate(sub, pattern):
    """Slot of `pattern` holding each entry of `sub`, a pattern of the same
    shape whose entries are all in `pattern`."""
    n = pattern.shape[0]
    keys = pattern.columns().astype(np.int64) * n + pattern.indices
    sub_keys = sub.columns().astype(np.int64) * n + sub.indices
    pos = np.minimum(np.searchsorted(keys, sub_keys), len(keys) - 1)
    if not np.array_equal(keys[pos], sub_keys):
        raise ValueError("pattern does not contain the sub-pattern")
    return pos.astype(INDEX)


def stack(blocks, sizes):
    """CSC pattern of the square block matrix with pattern blocks[I, J] at
    block row I and block column J (`sizes` gives the block sizes; absent
    blocks are empty), and for each block the slot of each of its slots."""
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(INDEX)
    counts = np.zeros(off[-1], dtype=INDEX)
    before = {}
    for I, J in sorted(blocks):  # block rows in order within each column
        cnt = counts[off[J]:off[J + 1]]
        before[I, J] = cnt.copy()
        cnt += np.diff(blocks[I, J].indptr)
    indptr = _offsets(counts)
    indices = np.empty(indptr[-1], dtype=INDEX)
    slots = {}
    for (I, J), p in blocks.items():
        # block slot k, in column c, goes to tangent slot first[c] + k
        first = indptr[off[J]:off[J + 1]] + before[I, J] - p.indptr[:-1]
        g = np.repeat(first, np.diff(p.indptr)) + np.arange(p.nnz, dtype=INDEX)
        indices[g] = p.indices + off[I]
        slots[I, J] = g
    return Pattern((off[-1], off[-1]), indptr, indices), slots
