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
Columns are absorbed left to right into a boundary MPS that is compressed
to bond dimension chi after every column (QR sweep, then SVD truncation).
Absorption and the carries between sites are BLAS matrix products on
reshaped views, and the sweeps call LAPACK ``geqrf``/``orgqr`` and ``gesdd``
directly, because at these block sizes (at most a few dozen rows) the
generic ``np.linalg.qr``/``scipy.linalg.svd`` wrappers cost more than the
arithmetic.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg.lapack

from .codes import StabilizerCode, rotated_face_included, rotated_face_is_x
from .noise import BiasedNoiseModel
from .pauli import PauliOperator

__all__ = [
    "NetworkLayout",
    "SiteTensorSpec",
    "BoundaryMPS",
    "network_layout",
    "build_coset_network",
    "initial_boundary",
    "apply_and_truncate",
    "contract_columns",
    "coset_log_probability",
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


@lru_cache(maxsize=16)
def _site_tables(
    code: StabilizerCode, model: BiasedNoiseModel
) -> tuple[np.ndarray, tuple[tuple[tuple[np.ndarray, ...], ...], ...]]:
    """Every site tensor the reference Pauli can select, built once per code and model.

    Returns the qubits in site order and, per site, four read-only tensors
    indexed by the reference's class ``x + 2z`` on that qubit.  A last-column
    entry already stacks the closing of the class and of the class times Z
    along its right bond.  Each tensor is a (up, down, left, right) view of a
    C-contiguous (up, left, down, right) array, the layout ``_absorb``
    multiplies without a copy.
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

    tables = tuple(
        tuple(variants(site, c == layout.cols - 1) for site in col)
        for c, col in enumerate(layout.columns)
    )
    qubits = np.array([site.qubit for col in layout.columns for site in col])
    return qubits, tables


def build_coset_network(
    code: StabilizerCode, model: BiasedNoiseModel, rep: PauliOperator
) -> list[list[np.ndarray]]:
    """Site tensors, column by column, for the cosets of ``rep`` and ``rep * Zbar_k``.

    Columns 1..k-1 belong to ``rep``.  The last column carries two closings
    stacked along its right bond: index 0 for ``rep`` and index 1 for ``rep``
    times Z on every qubit of column k.  Contracting the result gives, per
    closing, the sum of prob(P * S) over all stabilizers S.  The tensors are
    shared read-only views of the tables cached per code and model.
    """
    qubits, tables = _site_tables(code, model)
    classes = iter((rep.x_bits[qubits] + 2 * rep.z_bits[qubits]).tolist())
    return [[variants[next(classes)] for variants in col] for col in tables]


_geqrf, _orgqr, _gesdd, _gesvd = scipy.linalg.lapack.get_lapack_funcs(
    ("geqrf", "orgqr", "gesdd", "gesvd"), dtype=np.float64
)


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

    ``log_norm`` accumulates the factors removed by compression;
    ``is_zero`` marks an exactly vanishing state (log value -inf).
    """

    tensors: list[np.ndarray]
    log_norm: float = 0.0
    is_zero: bool = False

    @property
    def bond_dimensions(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors[:-1])


def initial_boundary(rows: int) -> BoundaryMPS:
    """The trivial product boundary ahead of the first column."""
    return BoundaryMPS([np.ones((1, 1, 1)) for _ in range(rows)])


def _absorb(mps: BoundaryMPS, column: list[np.ndarray]) -> list[np.ndarray]:
    absorbed = []
    for a, t in zip(mps.tensors, column):
        u, d, l, p = t.shape
        # (dl, 1, dr, l) @ (u, l, d*p) broadcasts to (dl, u, dr, d*p): the
        # absorbed tensor's (left, right, physical) order, with no transpose.
        b = np.matmul(a[:, None], t.transpose(0, 2, 1, 3).reshape(u, l, d * p))
        absorbed.append(b.reshape(a.shape[0] * u, a.shape[1] * d, p))
    return absorbed


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
            weights = svals * svals
            stats["max_bond_dim"] = max(stats.get("max_bond_dim", 0), keep)
            stats["discarded_weight"] = max(
                stats.get("discarded_weight", 0.0), float(weights[keep:].sum() / weights.sum())
            )
            if svals.size >= 2:
                stats["max_rank2_ratio"] = max(
                    stats.get("max_rank2_ratio", 0.0), float(svals[1] / svals[0])
                )
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


def apply_and_truncate(
    mps: BoundaryMPS, column: list[np.ndarray], chi: int, stats: dict | None = None
) -> BoundaryMPS:
    """Absorb one column of site tensors, then compress to bond dimension chi."""
    if chi < 1:
        raise ValueError(f"chi must be >= 1, got {chi}")
    if mps.is_zero:
        return mps
    tensors, factor, is_zero = _compress(_absorb(mps, column), chi, stats)
    if is_zero:
        return BoundaryMPS(tensors, mps.log_norm, True)
    return BoundaryMPS(tensors, mps.log_norm + factor, False)


def _close(mps: BoundaryMPS, column: list[np.ndarray]) -> np.ndarray:
    """Absorb the final column and contract once per index of its right bond.

    That bond is open, so each index is a separate closing of the same
    boundary state; the result holds one log value per closing (-inf where
    the value vanishes).
    """
    out = np.full(column[0].shape[3], -np.inf)
    if mps.is_zero:
        return out
    absorbed = _absorb(mps, column)
    for i in range(out.size):
        m = np.eye(1)
        for t in absorbed:
            m = m @ t[:, :, i]
        value = float(m[0, 0])
        if value > 0.0 and math.isfinite(value):
            out[i] = mps.log_norm + math.log(value)
    return out


def contract_columns(
    columns: list[list[np.ndarray]], chi: int, stats: dict | None = None
) -> np.ndarray:
    """Contract a column list to one log value per closing; -inf where it vanishes.

    The boundary MPS is compressed to bond dimension chi after each column
    except the last, which is closed by a direct matrix chain once per index
    of its right bond.
    """
    mps = initial_boundary(len(columns[0]))
    for col in columns[:-1]:
        mps = apply_and_truncate(mps, col, chi, stats)
        if mps.is_zero:
            break
    return _close(mps, columns[-1])


def coset_log_probability(
    code: StabilizerCode,
    model: BiasedNoiseModel,
    rep: PauliOperator,
    chi: int,
    stats: dict | None = None,
) -> float:
    """log of the total probability of the coset rep * stabilizer group."""
    return float(contract_columns(build_coset_network(code, model, rep), chi, stats)[0])
