"""Boundary-MPS contraction of coset-probability networks on rotated codes.

Each included face of the rotated layout carries one binary stabilizer
variable.  Qubit sites become rank-4 tensors (up, down, left, right) whose
bonds transport the face variables between neighbours:

* the vertical bond below site (r, c) carries faces (r, c-1) and (r, c)
  when included (dimension up to 4);
* the horizontal bond to the right of site (r, c) carries exactly one face
  in gap column c -- face (r, c) when c is odd, face (r-1, c) when c is
  even -- which is always included (dimension exactly 2).

With this routing every face's support forms a tree inside the bond graph,
so contracting the network sums each stabilizer subset exactly once and the
result equals the total probability of the coset of the reference Pauli.
Columns are absorbed left to right into a boundary state over the rows'
horizontal bonds.  At the cut below row r of a j-row boundary no bond can
exceed 2^min(r, j-r), so ``contract_columns`` picks one of two regimes from
j and chi alone:

* chi >= 2^floor(j/2): truncation could never drop a singular value, so the
  boundary is contracted exactly as one merged site holding all 2^j
  amplitudes, and the result is the exact coset probability.  A column is
  absorbed in blocks of up to three consecutive rows (9 = 3+3+3,
  7 = 3+3+1), each one matrix product against that vector.  A block's
  matrix is its sites contracted over their internal vertical bonds; every
  one the reference Pauli can select is tabulated once per code and noise
  model and gathered by ``build_coset_network`` into each ``Column``.
* chi < 2^floor(j/2): the boundary is an MPS that is compressed to bond
  dimension chi after every column (QR sweep, then SVD truncation).
  Absorption and the carries between sites are BLAS matrix products on
  reshaped views, and the sweeps call LAPACK ``geqrf``/``orgqr`` and
  ``gesdd`` directly, because at these block sizes (at most a few dozen
  rows) the generic ``np.linalg.qr``/``scipy.linalg.svd`` wrappers cost
  more than the arithmetic.  The routines are looked up from
  ``scipy.linalg.lapack`` on first use, so scipy is imported only by a
  truncating contraction.

One sweep serves two cosets.  Z on every qubit of the last column k is a
logical Z: it differs from the column-1 string ``code.logical_z`` by the
product of the Z faces between the two columns.  So the cosets of a
reference Pauli f and of f * Zbar_k share the site tensors of columns
1..k-1 and differ only in column k.  ``build_coset_network`` stacks both
versions of column k along its right bond, which is open (dimension 1) for
a single coset, and the contraction closes the one boundary state once per
index of that bond.  An ML decoder therefore sweeps twice (from f and from
f * Xbar) instead of four times (Bravyi-Suchara-Vargo, arXiv:1405.4883).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import StabilizerCode, rotated_face_included, rotated_face_is_x
from .noise import BiasedNoiseModel
from .pauli import PauliOperator

__all__ = [
    "NetworkLayout",
    "SiteTensorSpec",
    "Column",
    "network_layout",
    "build_coset_network",
    "contract_columns",
]


@dataclass(frozen=True)
class SiteTensorSpec:
    """Precomputed structure of one site tensor: consistency and parities.

    ``mask`` is 1 on bond-index combinations whose face assignments agree;
    ``x_parity``/``z_parity`` give the accumulated X/Z action on the qubit
    for each consistent combination.  All three share the (up, down, left,
    right) shape.
    """

    qubit: int
    mask: np.ndarray
    x_parity: np.ndarray
    z_parity: np.ndarray


@dataclass(frozen=True)
class NetworkLayout:
    code_id: str
    rows: int
    cols: int
    included_faces: tuple[tuple[int, int], ...]
    columns: tuple[tuple[SiteTensorSpec, ...], ...]


def _vertical_bond_faces(j: int, k: int, r: int, c: int) -> list[tuple[int, int]]:
    """Faces carried between sites (r-1, c) and (r, c)."""
    return [
        f
        for f in ((r - 1, c - 1), (r - 1, c))
        if rotated_face_included(j, k, f[0], f[1])
    ]


def _horizontal_bond_face(r: int, b: int) -> tuple[int, int]:
    """The single face carried between columns b and b+1 at row r."""
    return (r, b) if b % 2 == 1 else (r - 1, b)


def _build_site(code: StabilizerCode, r: int, c: int) -> SiteTensorSpec:
    j, k = code.j, code.k
    up = _vertical_bond_faces(j, k, r, c) if r >= 2 else []
    down = _vertical_bond_faces(j, k, r + 1, c) if r <= j - 1 else []
    left = [_horizontal_bond_face(r, c - 1)] if c >= 2 else []
    right = [_horizontal_bond_face(r, c)] if c <= k - 1 else []
    bonds = (up, down, left, right)

    touching = [
        f
        for f in ((r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c))
        if rotated_face_included(j, k, f[0], f[1])
    ]
    carried = {f for faces in bonds for f in faces}
    if carried != set(touching):
        raise AssertionError(
            f"{code.id}: face routing at site ({r}, {c}) does not cover its faces"
        )

    dims = tuple(2 ** len(faces) for faces in bonds)
    mask = np.zeros(dims, dtype=np.uint8)
    x_parity = np.zeros(dims, dtype=np.uint8)
    z_parity = np.zeros(dims, dtype=np.uint8)
    for iu in range(dims[0]):
        for idn in range(dims[1]):
            for il in range(dims[2]):
                for ir in range(dims[3]):
                    assign: dict[tuple[int, int], int] = {}
                    ok = True
                    for faces, idx in zip(bonds, (iu, idn, il, ir)):
                        for t, f in enumerate(faces):
                            bit = (idx >> t) & 1
                            if assign.setdefault(f, bit) != bit:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    mask[iu, idn, il, ir] = 1
                    xp = zp = 0
                    for f, bit in assign.items():
                        if bit:
                            if rotated_face_is_x(f[0], f[1]):
                                xp ^= 1
                            else:
                                zp ^= 1
                    x_parity[iu, idn, il, ir] = xp
                    z_parity[iu, idn, il, ir] = zp
    return SiteTensorSpec(code.qubit_index(r, c), mask, x_parity, z_parity)


@lru_cache(maxsize=16)
def network_layout(code: StabilizerCode) -> NetworkLayout:
    """Build (and cache) the site-tensor wiring for a rotated-layout code."""
    if code.layout != "rotated":
        raise ValueError("tensor networks are defined for rotated-layout codes")
    j, k = code.j, code.k
    faces = tuple(
        (a, b)
        for a in range(j + 1)
        for b in range(k + 1)
        if rotated_face_included(j, k, a, b)
    )
    if len(faces) != code.num_checks:
        raise AssertionError(f"{code.id}: face count != check count")
    columns = tuple(
        tuple(_build_site(code, r, c) for r in range(1, j + 1))
        for c in range(1, k + 1)
    )
    return NetworkLayout(code.id, j, k, faces, columns)


# Rows per block of the merged regime.  A block's table holds 4^b matrices
# of up to (2^b * 4) x (4 * 2^b) float64 entries: 0.5 MiB at three rows,
# 8 MiB at four.
_BLOCK_ROWS = 3


class Column(tuple):
    """One column of a coset network: its site tensors, row 1 first, and row blocks.

    Iterates and indexes as the (up, down, left, right) site tensors, which
    the MPS chain absorbs one at a time.  ``blocks`` holds, per run of up to
    ``_BLOCK_ROWS`` consecutive rows, the ``_row_block`` matrix of those
    sites, which the merged boundary absorbs in one product.  Any other
    sequence of site tensors is a valid column too; its blocks are
    contracted when it is absorbed.
    """

    blocks: tuple[np.ndarray, ...]

    def __new__(cls, sites, blocks: tuple[np.ndarray, ...]):
        column = tuple.__new__(cls, sites)
        column.blocks = blocks
        return column


def _row_block(sites) -> np.ndarray:
    """Consecutive sites of one column contracted over their internal vertical bonds.

    Each site is (..., up, down, left, right), and leading axes broadcast.
    The result is (..., P, K): rows (right_1, ..., right_b, down_b) and
    columns (up_1, left_1, ..., left_b), the first site most significant.
    As a matrix it maps the merged boundary's (vertical bond, old physical
    indices) of these rows to (new physical indices, vertical bond below).
    """
    b = len(sites)
    vertical, left, right = "abcd"[: b + 1], "lmn"[:b], "pqr"[:b]
    spec = ",".join(
        f"...{vertical[i]}{vertical[i + 1]}{left[i]}{right[i]}" for i in range(b)
    )
    m = np.einsum(f"{spec}->...{right}{vertical[b]}{vertical[0]}{left}", *sites, optimize=True)
    rows = math.prod(m.shape[-2 * b - 2 : -b - 1])
    return m.reshape(*m.shape[: -2 * b - 2], rows, -1)


@lru_cache(maxsize=None)
def _block_bounds(rows: int) -> tuple[tuple[int, int], ...]:
    """(first row, end row) of each row block of a ``rows``-row column, 0-based."""
    return tuple((r, min(r + _BLOCK_ROWS, rows)) for r in range(0, rows, _BLOCK_ROWS))


class _Tables(NamedTuple):
    """Every site tensor and row block a reference Pauli can select, for one code and model."""

    qubits: np.ndarray  # qubit of each site, in site order (column by column)
    sites: tuple[tuple[tuple[np.ndarray, ...], ...], ...]  # [column][row][class x + 2z]
    blocks: tuple[tuple[tuple[np.ndarray, ...], ...], ...]  # [column][block][combined class]
    weights: np.ndarray  # per site, 4^(its row within its block)
    starts: np.ndarray  # first site of every block, in site order


@lru_cache(maxsize=16)
def _site_tables(code: StabilizerCode, model: BiasedNoiseModel) -> _Tables:
    """Build the site and row-block tables of one code and model once.

    Each site has four read-only tensors, indexed by the reference's class
    ``x + 2z`` on its qubit.  A last-column entry already stacks the closing
    of the class and of the class times Z along its right bond.  Each is a
    (up, down, left, right) view of a C-contiguous (up, left, down, right)
    array, the layout ``_absorb`` multiplies without a copy.

    Each row block (``_block_bounds``) of each column has 4^b read-only
    ``_row_block`` matrices, views into one (4^b, P, K) stack, indexed by
    the block's combined class c_1 + 4 c_2 + 16 c_3: the sum of ``weights``
    times the classes over the block's sites.  Blocks whose sites have the
    same structure share one stack, so the tables hold at most 16 distinct
    stacks however large the code.
    """
    layout = network_layout(code)
    probs = model.class_probs

    def variants(site: SiteTensorSpec, last: bool) -> tuple[np.ndarray, ...]:
        single = [
            site.mask * probs[(site.x_parity ^ (cls & 1)) + 2 * (site.z_parity ^ (cls >> 1))]
            for cls in range(4)
        ]
        out = []
        for cls in range(4):
            t = np.concatenate([single[cls], single[cls ^ 2]], axis=3) if last else single[cls]
            stored = np.ascontiguousarray(t.transpose(0, 2, 1, 3))
            stored.setflags(write=False)
            out.append(stored.transpose(0, 2, 1, 3))
        return tuple(out)

    def block_stack(block: tuple[tuple[np.ndarray, ...], ...]) -> tuple[np.ndarray, ...]:
        # Site i's variants sit on broadcast axis b-1-i, so the C-order
        # flattening of the b variant axes is c_1 + 4 c_2 + ...
        b = len(block)
        axes = [
            np.stack(v).reshape((1,) * (b - 1 - i) + (4,) + (1,) * i + v[0].shape)
            for i, v in enumerate(block)
        ]
        m = _row_block(axes)
        stack = np.ascontiguousarray(m.reshape(4**b, *m.shape[-2:]))
        stack.setflags(write=False)
        return tuple(stack)

    last = layout.cols - 1
    sites = tuple(
        tuple(variants(site, c == last) for site in col) for c, col in enumerate(layout.columns)
    )
    bounds = _block_bounds(layout.rows)
    shared: dict[tuple, tuple[np.ndarray, ...]] = {}
    blocks = []
    for c, col in enumerate(layout.columns):
        stacks = []
        for lo, hi in bounds:
            # Only the last column's sites have a right bond of dimension 1,
            # so their stacked closings never share a stack with another column.
            key = tuple(
                (s.mask.shape, s.mask.tobytes(), s.x_parity.tobytes(), s.z_parity.tobytes())
                for s in col[lo:hi]
            )
            if key not in shared:
                shared[key] = block_stack(sites[c][lo:hi])
            stacks.append(shared[key])
        blocks.append(tuple(stacks))
    return _Tables(
        qubits=np.array([site.qubit for col in layout.columns for site in col]),
        sites=sites,
        blocks=tuple(blocks),
        weights=np.tile(4 ** (np.arange(layout.rows) % _BLOCK_ROWS), layout.cols),
        starts=np.array(
            [c * layout.rows + lo for c in range(layout.cols) for lo, _ in bounds]
        ),
    )


def build_coset_network(
    code: StabilizerCode, model: BiasedNoiseModel, rep: PauliOperator
) -> list[Column]:
    """Columns of site tensors for the cosets of ``rep`` and ``rep * Zbar_k``.

    Columns 1..k-1 belong to ``rep``.  The last column carries two closings
    stacked along its right bond: index 0 for ``rep`` and index 1 for ``rep``
    times Z on every qubit of column k.  Contracting the result gives, per
    closing, the sum of prob(P * S) over all stabilizers S.  The site
    tensors and row blocks are shared read-only views of the tables cached
    per code and model.
    """
    tables = _site_tables(code, model)
    classes = rep.x_bits[tables.qubits] + 2 * rep.z_bits[tables.qubits]
    per_block = iter(np.add.reduceat(classes * tables.weights, tables.starts).tolist())
    per_site = iter(classes.tolist())
    return [
        Column(
            [variants[next(per_site)] for variants in col],
            tuple([matrices[next(per_block)] for matrices in stacks]),
        )
        for col, stacks in zip(tables.sites, tables.blocks)
    ]


@lru_cache(maxsize=None)
def _lapack(name: str):
    """The float64 LAPACK routine ``name``; scipy is imported on the first call."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack.get_lapack_funcs(name, dtype=np.float64)


# Module-level names that ``_qr`` and ``_svd`` call (and tests replace).
def _geqrf(*args, **kwargs):
    return _lapack("geqrf")(*args, **kwargs)


def _orgqr(*args, **kwargs):
    return _lapack("orgqr")(*args, **kwargs)


def _gesdd(*args, **kwargs):
    return _lapack("gesdd")(*args, **kwargs)


def _gesvd(*args, **kwargs):
    return _lapack("gesvd")(*args, **kwargs)


def _raise_if_illegal(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"LAPACK {routine}: illegal value in argument {-info}")


@lru_cache(maxsize=None)
def _upper_mask(k: int, n: int) -> np.ndarray:
    mask = np.triu(np.ones((k, n)))
    mask.setflags(write=False)
    return mask


def _qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR by LAPACK geqrf + orgqr: Q (rows, k) with orthonormal columns,
    R (k, cols) upper triangular, k = min(rows, cols).  Q is Fortran-ordered."""
    qr, tau, _, info = _geqrf(m)
    _raise_if_illegal("geqrf", info)
    k = tau.size
    r = qr[:k] * _upper_mask(k, m.shape[1])
    q, _, info = _orgqr(qr[:, :k], tau, overwrite_a=1)
    _raise_if_illegal("orgqr", info)
    return q, r


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD by LAPACK gesdd, or gesvd where gesdd does not converge.

    A block holding infs or NaNs raises ValueError; a block neither driver
    converges on raises RuntimeError.
    """
    if not np.isfinite(m).all():
        raise ValueError(f"SVD input: a {m.shape} block holds infs or NaNs")
    u, s, vt, info = _gesdd(m, full_matrices=0)
    _raise_if_illegal("gesdd", info)
    if info > 0:
        u, s, vt, info = _gesvd(m, full_matrices=0)
        _raise_if_illegal("gesvd", info)
        if info > 0:
            raise RuntimeError(
                f"SVD failed to converge for a {m.shape} block under both drivers"
            )
    return u, s, vt


@dataclass
class BoundaryMPS:
    """Chain of (left-bond, right-bond, physical) tensors with pulled-out scale.

    A chain of one (1, 1, P) tensor is the merged boundary of the exact
    regime: its P entries are the amplitudes of every joint index of the
    rows' physical bonds, row 1 most significant.  ``log_norm`` accumulates
    the factors removed by compression; ``is_zero`` marks an exactly
    vanishing state (log value -inf).
    """

    tensors: list[np.ndarray]
    log_norm: float = 0.0
    is_zero: bool = False


def initial_boundary(rows: int) -> BoundaryMPS:
    """The trivial product boundary ahead of the first column."""
    return BoundaryMPS([np.ones((1, 1, 1)) for _ in range(rows)])


def _is_exact(rows: int, chi: int) -> bool:
    """True when no bond of a ``rows``-site boundary can exceed chi."""
    return 2 ** (rows // 2) <= chi


def _absorb(mps: BoundaryMPS, column: Sequence[np.ndarray]) -> list[np.ndarray]:
    absorbed = []
    for a, t in zip(mps.tensors, column):
        u, d, l, p = t.shape
        # (dl, 1, dr, l) @ (u, l, d*p) broadcasts to (dl, u, dr, d*p): the
        # absorbed tensor's (left, right, physical) order, with no transpose.
        b = np.matmul(a[:, None], t.transpose(0, 2, 1, 3).reshape(u, l, d * p))
        absorbed.append(b.reshape(a.shape[0] * u, a.shape[1] * d, p))
    return absorbed


def _absorb_merged(state: np.ndarray, column: Sequence[np.ndarray]) -> np.ndarray:
    """Absorb one column into the merged boundary vector, one row block at a time.

    Before a block starting at row r the vector is laid out (new physical
    indices of rows 1..r-1, vertical bond above row r, old physical indices
    of rows r..j).  The block's ``_row_block`` matrix maps the middle
    (vertical bond, old indices of its rows) to (new indices, vertical bond
    below) in place, which is the same layout one block further down, so the
    vector is never transposed.  Returns the new vector over the rows' right
    bonds.
    """
    bounds = _block_bounds(len(column))
    if isinstance(column, Column):
        blocks = column.blocks
    else:
        blocks = [_row_block(column[lo:hi]) for lo, hi in bounds]
    lead = 1
    for (_, hi), m in zip(bounds, blocks):
        x = state.reshape(lead, m.shape[1], -1)
        # One trailing entry makes the stacked product a single plain one.
        state = x[:, :, 0] @ m.T if x.shape[2] == 1 else np.matmul(m, x)
        lead *= m.shape[0] // column[hi - 1].shape[1]
    return state.reshape(-1)


def _record_cut(stats: dict, svals: np.ndarray, keep: int) -> None:
    """Fold one cut's singular values (largest first, the first positive) into ``stats``."""
    weights = svals * svals
    stats["max_bond_dim"] = max(stats.get("max_bond_dim", 0), keep)
    stats["discarded_weight"] = max(
        stats.get("discarded_weight", 0.0), float(weights[keep:].sum() / weights.sum())
    )
    if svals.size >= 2:
        stats["max_rank2_ratio"] = max(
            stats.get("max_rank2_ratio", 0.0), float(svals[1] / svals[0])
        )


def _compress(
    tensors: list[np.ndarray], chi: int, stats: dict | None
) -> tuple[list[np.ndarray], float, bool]:
    """Left-canonicalize, truncate right-to-left, pull out the overall scale.

    With ``stats`` given, records the largest kept bond (``max_bond_dim``),
    the largest second-to-first singular value ratio (``max_rank2_ratio``)
    and the largest share of squared singular values dropped by one
    truncation (``discarded_weight``).
    """
    j = len(tensors)
    for r in range(j - 1):
        a = tensors[r]
        dl, dr, p = a.shape
        q, rmat = _qr(a.transpose(0, 2, 1).reshape(dl * p, dr))
        kk = q.shape[1]
        # Q is Fortran-ordered, so this view copies nothing, and neither
        # does the reshape that feeds it to the SVD sweep's carry product.
        tensors[r] = q.T.reshape(kk, dl, p).transpose(1, 0, 2)
        nxt = tensors[r + 1]
        tensors[r + 1] = (rmat @ nxt.reshape(dr, -1)).reshape(kk, *nxt.shape[1:])
    for r in range(j - 1, 0, -1):
        a = tensors[r]
        dl, dr, p = a.shape
        u, svals, vt = _svd(a.reshape(dl, dr * p))
        if svals.size == 0 or svals[0] <= 0.0:
            return tensors, 0.0, True
        keep = min(chi, svals.size)
        if stats is not None:
            _record_cut(stats, svals, keep)
        tensors[r] = vt[:keep].reshape(keep, dr, p)
        carry = u[:, :keep] * svals[:keep]
        prev = tensors[r - 1]
        pl, _, pp = prev.shape
        tensors[r - 1] = (
            (prev.transpose(0, 2, 1).reshape(pl * pp, dl) @ carry)
            .reshape(pl, pp, keep)
            .transpose(0, 2, 1)
        )
    norm = float(np.linalg.norm(tensors[0]))
    if norm == 0.0 or not math.isfinite(norm):
        return tensors, 0.0, True
    tensors[0] = tensors[0] / norm
    return tensors, math.log(norm), False


def _apply_merged(
    mps: BoundaryMPS, column: Sequence[np.ndarray], stats: dict | None
) -> BoundaryMPS:
    """Absorb one column into the merged boundary exactly and pull out its norm.

    With ``stats`` given, records what an untruncated MPS would: at every
    cut the singular values of the vector reshaped to (rows above, rows
    below), with ``discarded_weight`` 0.0.
    """
    state = _absorb_merged(mps.tensors[0], column)
    norm = math.sqrt(state @ state)  # what np.linalg.norm computes, without its overhead
    if not math.isfinite(norm):
        raise ValueError("boundary state holds infs or NaNs")
    if norm == 0.0:
        return BoundaryMPS([state.reshape(1, 1, -1)], mps.log_norm, True)
    state /= norm
    if stats is not None:
        above = 1
        for t in column[:-1]:
            above *= t.shape[3]
            svals = np.linalg.svd(state.reshape(above, -1), compute_uv=False)
            _record_cut(stats, svals, svals.size)
    return BoundaryMPS([state.reshape(1, 1, -1)], mps.log_norm + math.log(norm), False)


def apply_and_truncate(
    mps: BoundaryMPS, column: Sequence[np.ndarray], chi: int, stats: dict | None = None
) -> BoundaryMPS:
    """Absorb one column of site tensors, then compress to bond dimension chi.

    A merged boundary (one site) is exact and stays merged; it is only valid
    where chi could never truncate.
    """
    if chi < 1:
        raise ValueError(f"chi must be >= 1, got {chi}")
    if mps.is_zero:
        return mps
    if len(mps.tensors) == 1:
        if not _is_exact(len(column), chi):
            raise ValueError(
                f"a merged {len(column)}-row boundary is exact; chi={chi} would truncate"
            )
        return _apply_merged(mps, column, stats)
    tensors, factor, is_zero = _compress(_absorb(mps, column), chi, stats)
    if is_zero:
        return BoundaryMPS(tensors, mps.log_norm, True)
    return BoundaryMPS(tensors, mps.log_norm + factor, False)


def _close(mps: BoundaryMPS, column: Sequence[np.ndarray]) -> np.ndarray:
    """Absorb the final column and contract once per index of its right bond.

    That bond is open, so each index is a separate closing of the same
    boundary state; the result holds one log value per closing (-inf where
    the value vanishes).
    """
    out = np.full(column[0].shape[3], -np.inf)
    if mps.is_zero:
        return out
    if len(mps.tensors) == 1:
        # Closing i is the entry whose every row index is i.
        state = _absorb_merged(mps.tensors[0], column)
        values = state[np.arange(out.size) * sum(out.size**r for r in range(len(column)))]
    else:
        absorbed = _absorb(mps, column)
        values = []
        for i in range(out.size):
            m = np.eye(1)
            for t in absorbed:
                m = m @ t[:, :, i]
            values.append(m[0, 0])
    for i, value in enumerate(values):
        value = float(value)
        if value > 0.0 and math.isfinite(value):
            out[i] = mps.log_norm + math.log(value)
    return out


def contract_columns(
    columns: Sequence[Sequence[np.ndarray]], chi: int, stats: dict | None = None
) -> np.ndarray:
    """Contract a column list to one log value per closing; -inf where it vanishes.

    Where chi >= 2^floor(rows/2) the boundary is one merged site and every
    column is absorbed exactly.  Otherwise the boundary MPS is compressed to
    bond dimension chi after each column.  Either way every column but the
    last goes through ``apply_and_truncate``, and the last is closed once per
    index of its right bond.
    """
    rows = len(columns[0])
    mps = initial_boundary(1 if _is_exact(rows, chi) else rows)  # one site: merged
    for col in columns[:-1]:
        mps = apply_and_truncate(mps, col, chi, stats)
        if mps.is_zero:
            break
    return _close(mps, columns[-1])

