"""Independent reference values the benchmark checks the library against.

Nothing here imports `semisimple`: every value comes from a closed form or
a textbook formula, computed in plain Python.

* hook length f_lam and the content rank of the walled Brauer Gram matrix
  (the matrix of sum_g t^cycles(g) g on the regular representation of S_d;
  by Jucys-Murphy that central element acts on the Specht module S^lam by
  prod_{box} (t + content), and F_p[S_d] is semisimple for p > d);
* truncated Clebsch-Gordan and the e = 1 Jordan tensor closed form;
* the psi^2 closed form for Sym^2 - Lambda^2 in the Verlinde category;
* Lucas' theorem and base-p digits;
* the Frobenius-Perron dimension in floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, pi, sin


# ---------------------------------------------------------------------------
# Partitions, hook lengths, contents
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, max_rows: int | None = None, max_part: int | None = None) -> tuple:
    """All partitions of n (weakly decreasing tuples) inside the given box."""
    rows = n if max_rows is None else max_rows
    part = n if max_part is None else max_part

    def gen(rest, rows_left, largest):
        if rest == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for a in range(min(rest, largest), 0, -1):
            for tail in gen(rest - a, rows_left - 1, a):
                yield (a,) + tail

    return tuple(gen(n, rows, part))


def _boxes(lam):
    return [(i, j) for i, row in enumerate(lam) for j in range(row)]


def hooks(lam) -> list[int]:
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    return [lam[i] - j + cols[j] - i - 1 for i, j in _boxes(lam)]


def contents(lam) -> list[int]:
    return [j - i for i, j in _boxes(lam)]


@lru_cache(maxsize=None)
def hook_dim(lam: tuple) -> int:
    """f_lam, the dimension of the Specht module, by the hook length formula."""
    prod = 1
    for h in hooks(lam):
        prod *= h
    return factorial(sum(lam)) // prod


def schur_dim(lam: tuple, d: int) -> int:
    """dim S^lam(K^d) by the hook content formula (0 if lam has > d rows)."""
    if len(lam) > d:
        return 0
    num = 1
    for c in contents(lam):
        num *= d + c
    den = 1
    for h in hooks(lam):
        den *= h
    return num // den


def content_rank(d: int, t, p: int | None = None) -> int:
    """Rank of the degree-d Gram matrix at t: sum of f_lam^2 over lam |- d
    with prod (t + c(box)) != 0.  With p given, t is an integer residue and
    the product is taken mod p (valid for p > d)."""
    if d == 0:
        return 1
    total = 0
    for lam in partitions(d):
        prod = Fraction(1)
        for c in contents(lam):
            prod *= t + c
        nonzero = prod % p != 0 if p is not None else prod != 0
        if nonzero:
            total += hook_dim(lam) ** 2
    return total


def homdim(n: int, d: int) -> int:
    """Hom dimension over GL_n in degree d: sum of f_lam^2 over lam |- d, <= n rows."""
    if d == 0:
        return 1
    return sum(hook_dim(lam) ** 2 for lam in partitions(d, max_rows=n))


@lru_cache(maxsize=None)
def plancherel_square_sum(p: int, d: int) -> int:
    return sum(hook_dim(lam) ** 2 for lam in partitions(p - 1, d, p - d))


@lru_cache(maxsize=None)
def improved_parts(p: int, d: int) -> tuple[int, int, int]:
    """(M, row_sum, box_sum): the largest dim S^lam(K^d) over lam |- p-1 with
    <= d rows, the sum of f_lam over those lam, and over the d x (p-d) box."""
    rows = partitions(p - 1, d)
    big = max(schur_dim(lam, d) for lam in rows)
    row_sum = sum(hook_dim(lam) for lam in rows)
    box_sum = sum(hook_dim(lam) for lam in partitions(p - 1, d, p - d))
    return big, row_sum, box_sum


# ---------------------------------------------------------------------------
# Fusion and Jordan closed forms
# ---------------------------------------------------------------------------


def cg(p: int, i: int, j: int) -> list[int]:
    """Truncated Clebsch-Gordan: L_i L_j = sum_{l=1}^{min(i,j,p-i,p-j)} L_{|i-j|+2l-1}."""
    m = [0] * (p - 1)
    for l in range(1, min(i, j, p - i, p - j) + 1):
        m[abs(i - j) + 2 * l - 2] += 1
    return m


def pretty(m) -> str:
    """The fusion-ring display form: "1 + L3 + 2.L5"."""
    parts = []
    for k, mult in enumerate(m, start=1):
        if mult:
            label = "1" if k == 1 else f"L{k}"
            parts.append(label if mult == 1 else f"{mult}.{label}")
    return " + ".join(parts) if parts else "0"


def single_tensor_e1(p: int, m: int, n: int) -> list[int]:
    """Blocks of J_m (x) J_n over Z/p (1 <= m, n <= p), largest first.

    With m <= n and r = min(m, p - n): the blocks are n-m+2l-1 for
    l = 1..r, plus m - r copies of J_p.
    """
    if m > n:
        m, n = n, m
    r = min(m, p - n)
    blocks = [n - m + 2 * l - 1 for l in range(1, r + 1)] + [p] * (m - r)
    return sorted(blocks, reverse=True)


def tensor_e1(p: int, a, b) -> list[int]:
    return sorted((x for m in a for n in b for x in single_tensor_e1(p, m, n)), reverse=True)


def verlinde_image(p: int, blocks) -> list[int]:
    """m_k = number of blocks of size k < p."""
    m = [0] * (p - 1)
    for b in blocks:
        if b < p:
            m[b - 1] += 1
    return m


def psi2(p: int, k: int) -> list[int]:
    """Sym^2 - Lambda^2 of L_k: sum_{i<k} (-1)^i L_{2k-1-2i}, with L_p -> 0
    and L_{p+a} -> -L_{p-a}."""
    out = [0] * (p - 1)
    for i in range(k):
        label, sign = 2 * k - 1 - 2 * i, (-1) ** i
        if label == p:
            continue
        if label > p:
            label, sign = 2 * p - label, -sign
        out[label - 1] += sign
    return out


def square_difference(p: int, m) -> list[int]:
    out = [0] * (p - 1)
    for k, mult in enumerate(m, start=1):
        if mult:
            for idx, c in enumerate(psi2(p, k)):
                out[idx] += mult * c
    return out


def fusion_product(p: int, a, b) -> list[int]:
    """Product of two multiplicity vectors by truncated Clebsch-Gordan."""
    out = [0] * (p - 1)
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            if x and y:
                for idx, c in enumerate(cg(p, i, j)):
                    out[idx] += x * y * c
    return out


def squares_e1(p: int, blocks) -> tuple[list[int], list[int]]:
    """Blocks of Sym^2 V and Lambda^2 V over Z/p, p odd.

    Semisimplification to Ver_p commutes with Sym^2 and Lambda^2, whose
    classes there are (V^2 + psi^2 V) / 2 and (V^2 - psi^2 V) / 2; every
    remaining dimension is made of J_p blocks.
    """
    m = verlinde_image(p, blocks)
    square, psi = fusion_product(p, m, m), square_difference(p, m)
    d = sum(blocks)
    out = []
    for sign, dim in ((1, d * (d + 1) // 2), (-1, d * (d - 1) // 2)):
        twice = [s + sign * x for s, x in zip(square, psi)]
        image = [x // 2 for x in twice]
        rest = dim - sum(k * x for k, x in enumerate(image, start=1))
        if any(x % 2 for x in twice) or rest % p:
            raise ValueError(f"no Sym^2/Lambda^2 split for {blocks} at p = {p}")
        out.append(sorted([k for k, x in enumerate(image, start=1) for _ in range(x)] + [p] * (rest // p),
                          reverse=True))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Digits and dimensions
# ---------------------------------------------------------------------------


def base_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n, least significant first ([] for n = 0)."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    out = 1
    while n or k:
        (n, a), (k, b) = divmod(n, p), divmod(k, p)
        if b > a:
            return 0
        out = out * (factorial(a) // (factorial(b) * factorial(a - b))) % p
    return out


def fp_dim_float(p: int, m) -> float:
    """Sum of m_k sin(pi k / p) / sin(pi / p)."""
    return sum(mult * sin(pi * k / p) for k, mult in enumerate(m, start=1)) / sin(pi / p)


def growth_form(m) -> str:
    """Display form of a growth rate: "2 + [3]_q"."""
    parts = []
    for k, mult in enumerate(m, start=1):
        if mult:
            parts.append(str(mult) if k == 1 else (f"[{k}]_q" if mult == 1 else f"{mult}[{k}]_q"))
    return " + ".join(parts) if parts else "0"
