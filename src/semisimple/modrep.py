"""Modular representations of cyclic p-groups as Jordan block multisets.

A representation of Z/p^e over F_p is the Jordan type of a unipotent
matrix of order dividing p^e.  Tensor, symmetric, and exterior
constructions are decomposed by rank profiles of nilpotent powers over
F_p (second differences of ranks), never by closed-form tables; the
closed forms serve as independent test oracles instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .scalars import CapExceeded, DomainError, check_prime, row_echelon_mod_p
from .verlinde import FusionElement

#: Largest supported group order p^e for direct matrix computation.
#: Overridable (e.g. by the CLI) at the caller's risk: the worst per-pair
#: Kronecker block is (p^e)^2-dimensional.
ORDER_CAP = 64

#: Largest induced-matrix dimension for symmetric/exterior constructions.
INDUCED_DIM_CAP = 4096


@dataclass(frozen=True)
class JordanModule:
    """Multiset of Jordan block sizes for a cyclic group of order p^e."""

    p: int
    e: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if self.e < 1:
            raise DomainError("order exponent must be >= 1")
        if self.p**self.e > ORDER_CAP:
            raise CapExceeded(
                f"group order {self.p}^{self.e} exceeds the cap {ORDER_CAP}"
            )
        blocks = tuple(sorted((int(b) for b in self.blocks), reverse=True))
        object.__setattr__(self, "blocks", blocks)
        order = self.p**self.e
        for b in blocks:
            if not 1 <= b <= order:
                raise DomainError(f"block size {b} outside [1, {order}]")

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def __str__(self):
        if not self.blocks:
            return "0"
        return " + ".join(f"J{b}" for b in self.blocks)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "blocks": list(self.blocks)}

    @classmethod
    def from_json(cls, doc: dict) -> "JordanModule":
        return cls(int(doc["p"]), int(doc.get("e", 1)), tuple(doc["blocks"]))


def unipotent_matrix(blocks: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal unipotent with one Jordan block (eigenvalue 1) per size."""
    n = sum(blocks)
    U = np.eye(n, dtype=np.int64)
    offset = 0
    for b in blocks:
        for i in range(b - 1):
            U[offset + i, offset + i + 1] = 1
        offset += b
    return U


def jordan_type(U: np.ndarray, p: int) -> tuple[int, ...]:
    """Jordan block sizes of a unipotent matrix over F_p.

    Computed from the rank profile of N = U - I: the multiplicity of a
    size-k block is rank(N^{k-1}) - 2 rank(N^k) + rank(N^{k+1}).  Powers
    are taken on a shrinking row basis of the row space, so the cost drops
    with every step.
    """
    n = U.shape[0]
    if n == 0:
        return ()
    N = (U - np.eye(n, dtype=np.int64)) % p
    Nf = N.astype(np.float64)  # entries < p, inner sums < 2^53: float matmul is exact
    ranks = [n]
    basis = row_echelon_mod_p(N, p)
    while basis.shape[0] > 0:
        if len(ranks) > n:
            raise DomainError("matrix is not unipotent over F_p")
        ranks.append(basis.shape[0])
        product = np.rint(basis.astype(np.float64) @ Nf).astype(np.int64)
        basis = row_echelon_mod_p(product % p, p)
    ranks.append(0)

    def rank(k: int) -> int:
        return ranks[k] if k < len(ranks) else 0

    blocks: list[int] = []
    for k in range(1, len(ranks)):
        mult = rank(k - 1) - 2 * rank(k) + rank(k + 1)
        blocks.extend([k] * mult)
    if sum(blocks) != n:
        raise RuntimeError(f"Jordan blocks {blocks} do not sum to the dimension {n}")
    return tuple(sorted(blocks, reverse=True))


@lru_cache(maxsize=None)
def _tensor_pair(p: int, e: int, m: int, n: int) -> tuple[int, ...]:
    if m > n:
        m, n = n, m
    U = np.kron(unipotent_matrix((m,)), unipotent_matrix((n,))) % p
    return jordan_type(U, p)


def jordan_tensor(a: JordanModule, b: JordanModule) -> JordanModule:
    """Jordan type of the Kronecker product, computed blockwise over F_p."""
    if (a.p, a.e) != (b.p, b.e):
        raise DomainError("tensor factors must share p and order exponent")
    counts: dict[int, int] = {}
    for m in a.blocks:
        for n in b.blocks:
            for size in _tensor_pair(a.p, a.e, m, n):
                counts[size] = counts.get(size, 0) + 1
    blocks = tuple(
        size for size in sorted(counts, reverse=True) for _ in range(counts[size])
    )
    return JordanModule(a.p, a.e, blocks)


def _check_induced_dim(dim: int):
    if dim > INDUCED_DIM_CAP:
        raise CapExceeded(
            f"induced matrix of dimension {dim} exceeds the cap {INDUCED_DIM_CAP}"
        )


@lru_cache(maxsize=None)
def _sym2_type(p: int, e: int, blocks: tuple[int, ...]) -> tuple[int, ...]:
    """Jordan type on V(x)V modulo antisymmetric tensors, basis e_i.e_j (i <= j)."""
    U = unipotent_matrix(blocks)
    d = U.shape[0]
    _check_induced_dim(d * (d + 1) // 2)
    basis = [(i, j) for i in range(d) for j in range(i, d)]
    index = {pair: n for n, pair in enumerate(basis)}
    S = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, (i, j) in enumerate(basis):
        for k in range(d):
            a = U[k, i]
            if not a:
                continue
            for l in range(d):
                b = U[l, j]
                if not b:
                    continue
                key = (k, l) if k <= l else (l, k)
                S[index[key], col] += a * b
    return jordan_type(S % p, p)


@lru_cache(maxsize=None)
def _wedge_type(p: int, e: int, blocks: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Jordan type on the k-th exterior power; entries are k x k minors of U."""
    d = sum(blocks)
    _check_induced_dim(comb(d, k))
    if k == 0:
        return (1,)
    U = unipotent_matrix(blocks).tolist()
    subsets = list(itertools.combinations(range(d), k))
    T = np.zeros((len(subsets), len(subsets)), dtype=np.int64)
    for col, cset in enumerate(subsets):
        for row, rset in enumerate(subsets):
            minor = [[U[r][c] for c in cset] for r in rset]
            T[row, col] = _int_det_mod_p(minor, p)
    return jordan_type(T % p, p)


def _int_det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant of a small integer matrix, reduced mod p."""
    n = len(rows)
    m = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        inv = pow(m[c][c], -1, p)
        det = det * m[c][c] % p
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det % p


def sym2(v: JordanModule) -> JordanModule:
    """Symmetric square: V(x)V modulo antisymmetric tensors, for p > 2."""
    if v.p == 2:
        raise DomainError("the square does not split into Sym/Ext at p = 2")
    return JordanModule(v.p, v.e, _sym2_type(v.p, v.e, v.blocks))


def ext2(v: JordanModule) -> JordanModule:
    """Exterior square: V(x)V modulo the span of squares v(x)v.

    Characteristic-free (offered at p = 2 as well, where sym2 is not).
    """
    return JordanModule(v.p, v.e, _wedge_type(v.p, v.e, v.blocks, 2))


def exterior_power(v: JordanModule, k: int) -> JordanModule:
    """Jordan type of the k-th exterior power, for p > 2 and 0 <= k <= dim."""
    if v.p == 2:
        raise DomainError("exterior powers are only offered for p > 2")
    if not 0 <= k <= v.dim:
        raise DomainError(f"exterior power degree {k} outside [0, {v.dim}]")
    return JordanModule(v.p, v.e, _wedge_type(v.p, v.e, v.blocks, k))


def non_negligible_part(v: JordanModule) -> JordanModule:
    """Drop every block whose size is divisible by p (the negligible summands)."""
    return JordanModule(v.p, v.e, tuple(b for b in v.blocks if b % v.p != 0))


def dual(v: JordanModule) -> JordanModule:
    """The dual module; equal to v since the inverse-transpose of a unipotent
    Jordan block is conjugate to the block itself."""
    return v


def to_verlinde(v: JordanModule) -> FusionElement:
    """Image in the fusion ring: m_k counts blocks of size k, 1 <= k <= p-1.

    Only defined for e = 1; blocks of size p have categorical dimension 0
    and vanish.
    """
    if v.e != 1:
        raise DomainError("only order-p modules land in the fusion ring")
    m = [0] * (v.p - 1)
    for b in v.blocks:
        if b < v.p:
            m[b - 1] += 1
    return FusionElement(v.p, tuple(m))
