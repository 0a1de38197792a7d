"""Modular representations of cyclic p-groups as Jordan block multisets.

A representation of Z/p^e over F_p is the Jordan type of a unipotent
matrix of order dividing p^e.  Tensor products of two blocks, and for p
odd the exterior square of one block, are read off graded Smith forms;
other exterior powers of one block no larger than p off SL_2 tilting
characters, of one block whose size is a power of p off a count of
orbits, and the rest off rank profiles of nilpotent powers of their
induced matrices over F_p (second differences of ranks).  Those of a sum
of blocks split by the natural isomorphism, exact in every
characteristic,

    Lambda^k(A + B) = sum_i Lambda^i A (x) Lambda^(k-i) B,

with A the first block, so the cross terms are tensor pairs and no
induced matrix spans two blocks.  The cap on the induced dimension is
still checked on the whole module first.  No route looks its answer up:
each is a structural isomorphism (the direct-sum split, the flip below,
the restriction from SL_2, the wedges of a permutation basis) together
with proven or cited formulas.  The closed forms (Clebsch-Gordan, the
e = 1 tensor, squares) serve as independent test oracles instead, as do
the rank profiles of the Kronecker product and of the induced matrices
of one block and of the whole module.

The symmetric square builds no matrix of its own.  The flip c of the two
factors of V (x) V commutes with U (x) U and c^2 = 1, so for p odd, where
2 is invertible, the idempotents (1 + c)/2 and (1 - c)/2 split
V (x) V = Sym^2 V + Lambda^2 V as modules.  Jordan types add over a
direct sum, so the type of Sym^2 V is that of V (x) V (tensor pairs)
minus that of Lambda^2 V.  At p = 2 the two idempotents do not exist and
Sym^2 V need not be a summand, so the symmetric square is refused there.

J_m (x) J_n, m <= n, is the Jordan type of x + y acting on
A = F_p[x, y]/(x^m, y^n): U_m (x) U_n - I acts as x + y + xy =
x + y(1 + x), and y -> y(1 + x) is an automorphism of A because 1 + x is
a unit (Norman 1995; Iima-Iwamatsu 2009).  Put t = x + y and substitute
y = t - x: as an F_p[t]-module, A is the cokernel of multiplication by
(t - x)^n on F_p[t][x]/(x^m) = F_p[t]^m (basis 1, x, ..., x^(m-1)).  That
map is an m x m lower-triangular Toeplitz matrix with entry
(-1)^(r-c) C(n, r-c) t^(n-r+c) at (r, c), and the Jordan block sizes are
its Smith exponents over F_p[t].  Every entry is a scalar times t to a
degree a_r + b_c fixed by its position, so a nonzero entry of least
degree divides every other entry.  Taking it as pivot and clearing its
row and column is a rank-1 update of the scalars mod p, after which entry
(r, c) is still a scalar times t^(a_r + b_c).  So m scalar pivots, each of
least degree, give the block sizes as their degrees, which sum to
deg det = mn; no mn-dimensional matrix is built (`_graded_smith`).  The
matrix is at most p^e x p^e and usually a few rows, so the elimination
runs on lists of Python ints, which never wrap at any p; an array library
would cost more to call than the arithmetic.

Lambda^2 J_n, p odd, is such a Smith form too, of an m x m matrix with
m = floor(n/2) (`_wedge2_block`).  Let A = F_p[x, y]/(x^n, y^n) =
J_n (x) J_n, the generator acting as (1 + x)(1 + y); Lambda^2 J_n is A^-,
the part where the swap of x and y acts as -1 (the flip above).  Let
h(x) = (1 + x/2)/(1 - x/2).  Then h(x) - 1 = x/(1 - x/2) is x times a
unit, so x -> h(x) - 1, y -> h(y) - 1 is an automorphism of A, and it
commutes with the swap.  It sends (1 + x)(1 + y) - 1 to
h(x)h(y) - 1 = (x + y)/((1 - x/2)(1 - y/2)), which is x + y times a unit
symmetric in x and y.  So on A^- the generator minus 1 has the Jordan type
of multiplication by s = x + y.  Put d = x - y and z = d^2; up to the
unit 2^n, the relations x^n, y^n are (s + d)^n = u + d w and
(s - d)^n = u - d w, split by parity in d, where

    u = sum_c C(n, 2c) s^(n-2c) z^c,   w = sum_c C(n, 2c+1) s^(n-1-2c) z^c,

and as 2 is a unit they generate the ideal (u, d w).

The part of F_p[s, d] odd in d is d F_p[s, z], and that of the ideal is
d (u, w), so A^- = F_p[s][z]/(u, w) as an F_p[s]-module.  For n odd w is
monic in z of degree m, for n even u is; so A^- is the cokernel of
multiplication by the other one on F_p[s][z]/(the monic one) = F_p[s]^m
(basis 1, z, ..., z^(m-1)).  With deg z = 2, u and w are homogeneous of
degrees n and n - 1; if D is the degree of the other one, entry (r, c),
the z^r coefficient of z^c times it, is a scalar times s^(D + 2(c - r)):
the shape above, and the same elimination gives the blocks, summing to
n(n-1)/2.

Lambda^k J_n for n <= p and k >= 3 comes from SL_2 (`_tilting_block`):
Ver_p is the semisimplification both of Rep(Z/p) and of the tilting
modules of SL_2 (Etingof-Ostrik, On semisimplification of tensor
categories).  Let G = SL_2 over the algebraic closure of F_p, L(m) its
simple module and T(m) its indecomposable tilting module of highest
weight m, chi(m) = e^m + e^(m-2) + ... + e^(-m) the Weyl character, and
u = [[1, 1], [0, 1]] in G, of order p.  Jordan types do not change under
a field extension, so five steps give the type.

1. For n <= p, u acts on L(n-1) = Sym^(n-1) F_p^2 as one block J_n,
   whatever e is.  u fixes x and sends y to x + y, so
   (u - 1)^(n-1) y^(n-1) = (n-1)! x^(n-1), which is not 0 as n - 1 < p.
   The generator of Z/p^e acts on J_n as U_n, of order p, so the type of
   Lambda^k J_n is that of u on Lambda^k L(n-1).
2. After the fold below k <= n/2 < p, so k! is a unit and the
   antisymmetrizer (1/k!) sum sgn(s) s is an idempotent of G-modules:
   Lambda^k L(n-1) is a direct summand of the k-th tensor power of
   L(n-1).  L(n-1) is a Weyl module and its dual for n - 1 <= p - 1, so
   it is tilting, and so are tensor products of tilting modules and their
   summands: Lambda^k L(n-1) is tilting.
3. A tilting module is a sum of T(m)s and is determined by its character:
   ch T(m) has the weight m once and none higher, so the multiplicities
   are peeled from the highest weight down.  The weights of
   Lambda^k L(n-1) are the sums of k distinct values among
   n - 1, n - 3, ..., 1 - n.
4. Donkin (On tilting modules for algebraic groups, Math. Z. 212, 1993)
   gives the characters: ch T(m) = chi(m) for m <= p - 1,
   chi(m) + chi(2p - 2 - m) for p - 1 < m <= 2p - 2, and by his tensor
   product theorem ch T(p - 1 + r + ps) = ch T(p - 1 + r) ch T(s)^[1]
   for 0 <= r <= p - 1 and s >= 1, where the Frobenius twist [1]
   multiplies every weight by p (`_tilting_character`).
5. T(m) = L(m) restricts to J_(m+1) for m <= p - 2, by step 1.  The
   Steinberg module St = T(p - 1) restricts to J_p, the regular module of
   F_p[u], which is free.  For 0 <= r <= p - 1, St (x) L(r) is tilting
   with the weight p - 1 + r once and none higher, so T(p - 1 + r) is its
   summand, and T(p - 1 + r + ps) = T(p - 1 + r) (x) T(s)^[1].  A free
   module tensored with any module is free, and a summand of a free
   module over the local ring F_p[u] is free, so T(m) for m >= p - 1
   restricts to dim T(m)/p copies of J_p.

Lambda^k J_q for q = p^g > p is a permutation module (`_orbit_block`).
J_q is the permutation module of x -> x + 1 on X = Z/q: with P its
matrix, it is the cyclic module F_p[P] = F_p[x]/(x^q - 1), and
x^q - 1 = (x - 1)^q as q is a power of p, so it is one block J_q.  The wedges e_S of the k-subsets S of X
are a basis of Lambda^k, and P e_S = +-e_(S+1).  The stabilizer of S is
the subgroup H of Z/q of some order p^f.  H acts freely on X, so S is
k/p^f orbits of length p^f, and a generator h of H permutes S in k/p^f
cycles of length p^f, of sign (-1)^((p^f - 1) k/p^f): +1 for p odd, and
-1 = 1 in F_2.  So h e_S = e_S with h = P^(q/p^f), and the vectors
P^i e_S, 0 <= i < q/p^f, are a basis of a cyclic module on which
P^(q/p^f) = 1: the block J_(q/p^f).  A k-subset is fixed by the subgroup
of order p^f if and only if it is a union of its q/p^f orbits; there are
F(f) = C(q/p^f, k/p^f) of them if p^f divides k, and 0 otherwise.  The
subgroups of Z/q form a chain, so F(f) - F(f + 1) subsets have
stabilizer of order exactly p^f, in orbits of q/p^f, and

    Lambda^k J_q = sum_f J_(q/p^f)^((F(f) - F(f + 1)) p^f / q).

At p = 2, Lambda^2 J_64 = J_64^31 + J_32.

Blocks larger than p whose size is not a power of p stay dense, rank
profiles of their induced matrices (`jordan_type` of `_induced_matrix`):
Lambda^2 at p = 2, where the swap does not split A and h needs 1/2, and
Lambda^k for k >= 3 at every p, where the substitution of the exterior
square gives prod (1 + x_i/2) - prod (1 - x_i/2) = e_1 + e_3/4 + ...,
not homogeneous, so no graded Smith form is known.  The dense route is
also the test oracle of the other three.  These rank profiles are the
only numpy in this module, so no other route imports it.

Only the exterior powers Lambda^k V with k <= dim V / 2 are computed;
`_wedge_type` folds a larger k to d - k itself: the wedge pairing
Lambda^k V (x) Lambda^(d-k) V -> Lambda^d V = det is perfect, det U = 1
and V* = V, so Lambda^(d-k) V = Lambda^k V in every characteristic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb

from .scalars import FUSION_ENTRY_CAP, INDUCED_DIM_CAP, ORDER_CAP, DomainError, Record, check_cap, check_prime, shown


class JordanModule(Record):
    """Multiset of Jordan block sizes for a cyclic group of order p^e.

    `cap` bounds p^e; it is not part of the value, so == and hash leave it
    out, and so does repr.
    """

    _fields = ("p", "e", "blocks")

    def __init__(self, p: int, e: int, blocks: tuple[int, ...], cap: int = ORDER_CAP):
        check_prime(p)
        if type(e) is not int:  # 1.5 or True would make a group order of that type
            raise DomainError("order exponent must be an integer")
        if e < 1:
            raise DomainError("order exponent must be >= 1")
        # p >= 2, so p to the cap's bit length + 1 is past the cap: no larger power is taken,
        # and the order that passes is p^e
        order = p ** min(e, cap.bit_length() + 1)
        check_cap(f"group order {p}^{shown(e)}", order, cap)
        blocks = tuple(sorted((int(b) for b in blocks), reverse=True))
        for b in blocks:
            if not 1 <= b <= order:
                raise DomainError(f"block size {shown(b)} outside [1, {order}]")
        self.__dict__.update(p=p, e=e, blocks=blocks, cap=cap, _key=(p, e, blocks))

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


def jordan_type(U: np.ndarray, p: int) -> tuple[int, ...]:
    """Jordan block sizes of a unipotent matrix over F_p.

    Computed from the rank profile of N = U - I: the multiplicity of a
    size-k block is rank(N^{k-1}) - 2 rank(N^k) + rank(N^{k+1}).  Powers
    are taken on a shrinking row basis of the row space, so the cost drops
    with every step.  Every inner sum of a product is an integer of at
    most n*(p-1)*max(N), so the products are exact in float32 while that
    bound is below 2^24 and in float64 while it is below 2^53; a larger
    matrix is refused with CapExceeded.
    """
    import numpy as np

    from .exact import row_echelon_mod_p

    n = U.shape[0]
    if n == 0:
        return ()
    N = (U - np.eye(n, dtype=np.int64)) % p
    top = int(N.max())
    check_cap(f"the float64 inner-sum bound n*(p-1)*max(N) = {n}*{p - 1}*{top} = {{}} (exact below 2^53)",
              n * (p - 1) * top, 2**53 - 1)
    dtype = np.float32 if n * (p - 1) * top < 2**24 else np.float64
    Nf = N.astype(dtype)
    ranks = [n]
    basis = row_echelon_mod_p(N, p)
    while basis.shape[0] > 0:
        if len(ranks) > n:
            raise DomainError("matrix is not unipotent over F_p")
        ranks.append(basis.shape[0])
        product = np.rint(basis.astype(dtype) @ Nf).astype(np.int64)
        basis = row_echelon_mod_p(product, p)
    ranks.append(0)

    def rank(k: int) -> int:
        return ranks[k] if k < len(ranks) else 0

    blocks: list[int] = []
    for k in range(1, len(ranks)):
        mult = rank(k - 1) - 2 * rank(k) + rank(k + 1)
        blocks.extend([k] * mult)
    return _jordan_blocks(blocks, n)


def _jordan_blocks(blocks: list[int], dim: int) -> tuple[int, ...]:
    """The block sizes, largest first, once they are checked to sum to the dimension dim."""
    if sum(blocks) != dim:
        raise RuntimeError(f"Jordan blocks {blocks} do not sum to the dimension {dim}")
    return tuple(sorted(blocks, reverse=True))


def _graded_smith(M: list[list[int]], a: list[int], b: list[int], p: int, dim: int) -> tuple[int, ...]:
    """Smith exponents over F_p[t] of the square matrix with entries M[r][c] t^(a[r] + b[c]),
    b nondecreasing, by least-degree pivots (see the module docstring): the Jordan block
    sizes of t on its cokernel, which has dimension dim.  M is reduced in place.

    As b is nondecreasing, the least degree in a row is at its first nonzero entry, its
    lead.  The pivot row, whose lead c is of least degree, is zero before c, so clearing
    column c changes no other row before c."""
    if b != sorted(b):
        raise RuntimeError("the column degrees of a graded matrix are not nondecreasing")

    def leads(rows):  # the first nonzero column of each row; a zero row has none
        return {r: c for r in rows for c in itertools.islice(itertools.compress(itertools.count(), M[r]), 1)}

    lead = leads(range(len(M)))
    if any(a[r] + b[c] < 0 for r, c in lead.items()):
        raise RuntimeError("a graded matrix has a nonzero entry at a negative degree")
    blocks = []
    while lead:  # a zero row gets no pivot, and the sum check refuses the blocks
        degree, r = min((a[r] + b[c], r) for r, c in lead.items())
        blocks.append(degree)
        c = lead.pop(r)
        pivot = M[r][c:]
        inverse = pow(pivot[0], -1, p)
        moved = []
        for i in lead:
            row = M[i]
            if row[c]:
                f = row[c] * inverse % p
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], pivot)]
                if lead[i] == c:
                    moved.append(i)
        for i in moved:
            del lead[i]
        lead.update(leads(moved))
    return _jordan_blocks(blocks, dim)


@lru_cache(maxsize=None)
def _tensor_pair(p: int, m: int, n: int) -> tuple[int, ...]:
    """Jordan type of J_m (x) J_n, m <= n: the Smith exponents of (t - x)^n
    on F_p[t][x]/(x^m) (see the module docstring)."""
    coef = [(-1) ** j * comb(n, j) % p for j in range(m)]
    M = [coef[r::-1] + [0] * (m - 1 - r) for r in range(m)]  # entry (r, c) is coef[r - c]
    return _graded_smith(M, [n - r for r in range(m)], list(range(m)), p, m * n)


def _wedge2_block(p: int, n: int) -> tuple[int, ...]:
    """Jordan type of Lambda^2 J_n for p odd, n >= 2: the Smith exponents of
    multiplication by the other one of u, w on F_p[s][z]/(the monic one)
    (see the module docstring)."""
    u = [comb(n, 2 * c) % p for c in range(n // 2 + 1)]
    w = [comb(n, 2 * c + 1) % p for c in range((n + 1) // 2)]
    f, g, D = (u, w, n) if n % 2 else (w, u, n - 1)
    m = len(g) - 1  # g is monic in z of degree m = floor(n/2)
    columns, col = [], f + [0] * (m + 1 - len(f))
    for _ in range(m):  # column c is z^c f mod g
        col = [(a - col[m] * b) % p for a, b in zip(col, g)][:m]
        columns.append(col)
        col = [0] + col
    M = [list(row) for row in zip(*columns)]
    return _graded_smith(M, [D - 2 * r for r in range(m)], [2 * c for c in range(m)], p, n * (n - 1) // 2)


def _tilting_character(p: int, m: int) -> dict[int, int]:
    """Weights of the SL_2 tilting module T(m) in characteristic p, with
    their multiplicities, by Donkin's formulas (see the module docstring)."""
    if m < 2 * p - 1:
        weyl = (m,) if m < p else (m, 2 * p - 2 - m)
        return Counter(w for j in weyl for w in range(-j, j + 1, 2))
    s, r = divmod(m - p + 1, p)
    twisted = _tilting_character(p, s)
    out = Counter()
    for a, x in _tilting_character(p, p - 1 + r).items():
        for b, y in twisted.items():
            out[a + p * b] += x * y
    return out


def _tilting_block(p: int, n: int, k: int) -> tuple[int, ...]:
    """Jordan type of Lambda^k J_n for n <= p and k < p: Lambda^k L(n-1) as a
    sum of SL_2 tilting modules T(m), each restricted to u (see the module
    docstring)."""
    ways = [Counter({0: 1})] + [Counter() for _ in range(k)]  # ways[j][w]: j-subsets of the weights seen, of sum w
    for v in range(n - 1, -n, -2):
        for j in range(k, 0, -1):
            for w, c in ways[j - 1].items():
                ways[j][w + v] += c
    char = +ways[k]
    blocks = []
    while char:
        m = max(char)
        a = char[m]  # a negative multiplicity drops blocks, and the sum check refuses them
        tilting = _tilting_character(p, m)
        for w, x in tilting.items():
            char[w] -= a * x
            if not char[w]:
                del char[w]
        if m <= p - 2:
            blocks += [m + 1] * a
        else:
            free, rest = divmod(a * sum(tilting.values()), p)
            if rest:
                raise RuntimeError(f"the free part {a} T({m}) at p = {p} has dimension not divisible by p")
            blocks += [p] * free
    return _jordan_blocks(blocks, comb(n, k))


def _orbit_block(p: int, q: int, k: int) -> tuple[int, ...]:
    """Jordan type of Lambda^k J_q for q a power of p and 1 <= k < q: one block
    J_(q/p^f) per orbit of k-subsets of Z/q with stabilizer of order p^f
    (see the module docstring)."""
    blocks, f, fixed = [], 0, comb(q, k)
    while fixed:  # fixed is F(f), 0 once p^f > k
        step = p ** (f + 1)
        below = comb(q // step, k // step) if k % step == 0 else 0
        orbits, rest = divmod((fixed - below) * p**f, q)
        if rest:
            raise RuntimeError(f"{fixed - below} {k}-subsets of Z/{q} with stabilizer {p}^{f} are no whole orbits")
        blocks += [q // p**f] * orbits
        fixed, f = below, f + 1
    return tuple(blocks)


def _tensor_blocks(p: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[int, ...]:
    """Block sizes of (+) J_m (x) (+) J_n, descending: one graded Smith form per pair of blocks."""
    pairs = (_tensor_pair(p, min(m, n), max(m, n)) for m in xs for n in ys)
    return tuple(sorted((size for pair in pairs for size in pair), reverse=True))


def jordan_tensor(a: JordanModule, b: JordanModule) -> JordanModule:
    """Jordan type of the Kronecker product, pair of blocks by pair of blocks."""
    if (a.p, a.e) != (b.p, b.e):
        raise DomainError("tensor factors must share p and order exponent")
    return JordanModule(a.p, a.e, _tensor_blocks(a.p, a.blocks, b.blocks), a.cap)


def _induced_matrix(blocks: tuple[int, ...], basis: list[tuple[int, ...]]) -> np.ndarray:
    """Matrix of Lambda^k U, U unipotent with Jordan blocks `blocks`, on e_i1 ^ ... ^ e_ik.

    basis lists the wedges as increasing index tuples; column j is the
    image of basis[j].  U e_i is e_i + e_(i-1), or e_i at the start of a
    block, so the image of a wedge is the sum of the at most 2^k wedges got
    by lowering some of its indices by one, each with coefficient +1: the
    lowered indices stay in order, and an image with a repeated index is
    zero.
    """
    import numpy as np

    starts = set(itertools.accumulate(blocks[:-1], initial=0))
    index = {mono: n for n, mono in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, mono in enumerate(basis):
        for image in itertools.product(*((i,) if i in starts else (i, i - 1) for i in mono)):
            if len(set(image)) == len(image):
                M[index[image], col] += 1
    return M


@lru_cache(maxsize=None)
def _wedge_type(p: int, blocks: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Jordan type on the k-th exterior power, basis e_i1 ^ ... ^ e_ik (i1 < ... < ik);
    split as the sum of Lambda^i A (x) Lambda^(k-i) B over V = A + B, A the first block.

    Empty for k > d, and k > d/2 is computed as d - k (see the module
    docstring).  Lambda^0 V = K and Lambda^1 V = V are read off directly;
    for 2 <= k <= d/2 the cap keeps d <= 91, which bounds the depth of the
    split.  A single block takes a graded Smith form for k = 2 at p odd,
    tilting characters if it is no larger than p, a count of orbits if its
    size is a power of p, and the induced matrix otherwise."""
    d = sum(blocks)
    check_cap("induced matrix of dimension {}", comb(d, k), INDUCED_DIM_CAP)
    if k > d:
        return ()
    if 2 * k > d:
        return _wedge_type(p, blocks, d - k)
    if k <= 1:
        return blocks if k else (1,)
    if len(blocks) > 1:
        head, rest = blocks[:1], blocks[1:]
        pieces = []
        for i in range(max(0, k - d + blocks[0]), min(k, blocks[0]) + 1):
            pieces += _tensor_blocks(p, _wedge_type(p, head, i), _wedge_type(p, rest, k - i))
        return tuple(sorted(pieces, reverse=True))
    if k == 2 and p > 2:
        return _wedge2_block(p, d)
    if d <= p:
        return _tilting_block(p, d, k)
    if pow(p, d, d) == 0:  # d divides p^d: a power of p
        return _orbit_block(p, d, k)
    basis = list(itertools.combinations(range(d), k))
    return jordan_type(_induced_matrix(blocks, basis), p)


def sym2(v: JordanModule) -> JordanModule:
    """Symmetric square, for p > 2: the complement of Lambda^2 V in V (x) V
    (see the module docstring)."""
    if v.p == 2:
        raise DomainError("the square does not split into Sym/Ext at p = 2")
    check_cap("induced matrix of dimension {}", v.dim * (v.dim + 1) // 2, INDUCED_DIM_CAP)
    square = Counter(_tensor_blocks(v.p, v.blocks, v.blocks))
    wedge = Counter(_wedge_type(v.p, v.blocks, 2))
    if wedge - square:
        raise RuntimeError(f"the type of Lambda^2 V is not contained in that of V (x) V for V = {v}")
    return JordanModule(v.p, v.e, tuple((square - wedge).elements()), v.cap)


def ext2(v: JordanModule) -> JordanModule:
    """Exterior square: V(x)V modulo the span of squares v(x)v.

    Characteristic-free (offered at p = 2 as well, where sym2 is not).
    """
    return JordanModule(v.p, v.e, _wedge_type(v.p, v.blocks, 2), v.cap)


def exterior_power(v: JordanModule, k: int) -> JordanModule:
    """Jordan type of the k-th exterior power, for p > 2 and 0 <= k <= dim."""
    if v.p == 2:
        raise DomainError("exterior powers are only offered for p > 2")
    if not 0 <= k <= v.dim:
        raise DomainError(f"exterior power degree {shown(k)} outside [0, {v.dim}]")
    return JordanModule(v.p, v.e, _wedge_type(v.p, v.blocks, k), v.cap)


def non_negligible_part(v: JordanModule) -> JordanModule:
    """Drop every block whose size is divisible by p (the negligible summands)."""
    return JordanModule(v.p, v.e, tuple(b for b in v.blocks if b % v.p != 0), v.cap)


def to_verlinde(v: JordanModule) -> FusionElement:
    """Image in the fusion ring: m_k counts blocks of size k, 1 <= k <= p-1.

    Only defined for e = 1; blocks of size p have categorical dimension 0
    and vanish.  Refused when its p - 1 multiplicities exceed the fusion
    document cap.
    """
    from .verlinde import FusionElement

    if v.e != 1:
        raise DomainError("only order-p modules land in the fusion ring")
    check_cap("fusion-ring image of {} multiplicities", v.p - 1, FUSION_ENTRY_CAP)
    m = [0] * (v.p - 1)
    for b in v.blocks:
        if b < v.p:
            m[b - 1] += 1
    return FusionElement(v.p, tuple(m))
