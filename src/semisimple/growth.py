"""Tensor-power growth invariants, p-adic dimension digits, and lower bounds.

The growth rate of an object of the fusion ring is carried exactly by its
multiplicity vector; the attached real number is only a high-precision
evaluation and is never used for equality decisions.  Recovery of the
multiplicities from growth data realizes the Galois-conjugation
uniqueness argument without floating point: with q a primitive 2p-th
root of unity, the growth rate of V and that of Sym^2 V - Lambda^2 V,
written in the basis [1]_q .. [(p-1)/2]_q of the real subfield of Q(q),
give m_k + m_{p-k} and m_k - m_{p-k} coefficient by coefficient, once the
second is multiplied by [2]_q and folded by [j]_q = [p-j]_q.

The binomial rows mod p and the p-adic digits read one Lucas product,
prod_i (1 + z^(p^i))^(t_i) mod p (Lucas 1878).  One builder, `_lucas_row`,
makes it a block at a time as the Kronecker product of the digit rows
C(t_i, b) mod p and returns the row; `binomials_mod_p` returns it as ints.
`PadicDigits.of_row` reads t_i = row[p^i] off a row that is such a product
by construction, and `padic_digits`, given any series, reads its digits
so, builds the product of those digits and compares the two once.  Each
digit row stops where the row does, so a row costs its length, never p.
For p <= 256 every residue fits a byte, so rows and series are held as
`bytearray`: a series is narrowed and range-checked in one C pass, each
block C(t_i, b) times the first p^i entries is a single `translate`
through a multiply-by-c table, and the series is compared with the
product by one memory compare, where Python ints would take a bytecode
step per entry for each.  Above 256 the row stays a list of ints.  In
fresh processes on a 2-core x86-64 host, `padic --p 5 --binomial 4000000
--format csv` takes 0.13 s and 51 MB, and `--p 257` 0.25 s and 47 MB.

Each function imports the modules it calls (`modrep`, `verlinde`,
`partitions`) where it calls them, so the binomial digits and the bounds
load neither Jordan modules nor the fusion ring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, takewhile
from math import isqrt

from .scalars import (
    BOUNDS_PRIME_CAP,
    FUSION_ENTRY_CAP,
    INDUCED_DIM_CAP,
    NUMERIC_TOL,
    POWER_WORK_CAP,
    DomainError,
    FpScalar,
    Record,
    check_cap,
    check_prime,
    shown,
)


# ---------------------------------------------------------------------------
# Growth rates
# ---------------------------------------------------------------------------


class GrowthRate(Record):
    """An exact growth rate: a multiplicity vector plus its numeric value.

    Equality is decided on (p, m) alone; the numeric field is computed
    from m at construction, so it can never drift from the exact data.
    """

    _fields = ("p", "m", "numeric")

    def __init__(self, p: int, m: tuple[int, ...]):
        from .verlinde import FusionElement, fp_dim

        element = FusionElement(p, m)  # validates p and m
        m = element.multiplicities
        value = fp_dim(element)
        # compared as exact fractions, so the caller's decimal context is neither read nor changed
        if not (element.is_zero or Fraction(value) >= 1 - Fraction(NUMERIC_TOL)):
            raise RuntimeError(f"Frobenius-Perron dimension {value} of a nonzero growth rate is below 1")
        self.__dict__.update(p=p, m=m, numeric=value, _key=(p, m))

    @property
    def is_zero(self) -> bool:
        return not any(self.m)

    @property
    def exact_form(self) -> str:
        """Human-readable exact value, e.g. "[3]_q" or "2 + [2]_q"."""
        if self.is_zero:
            return "0"
        parts = []
        for k, mult in enumerate(self.m, start=1):
            if mult == 0:
                continue
            if k == 1:
                parts.append(str(mult))
            else:
                body = f"[{k}]_q"
                parts.append(body if mult == 1 else f"{mult}{body}")
        return " + ".join(parts)


def tensor_power_length(x: FusionElement, n: int) -> int:
    """Number of simple summands of the n-th power of x, with multiplicity.

    The fusion product is associative, so the power is taken by repeated
    squaring: about 2 log2(n) products, not n - 1.  A power whose estimated
    work passes POWER_WORK_CAP raises CapExceeded before the first product.
    """
    if x.is_zero:
        raise DomainError("zero element has no tensor powers")
    if n < 1:
        raise DomainError("the power must be >= 1")
    from .verlinde import product

    bits = bin(n)[3:]  # the bits of n after the leading 1: square, then multiply by x at a 1
    triples = (x.p - 1) * x.p * (x.p + 1) // 6  # the (i, j, k) with L_k in L_i L_j
    bound = sum(m * min(k, x.p - k) for k, m in enumerate(x.multiplicities, start=1))  # [k]_q <= min(k, p - k)
    digits = n * (bound - 1).bit_length() // 30
    work = (len(bits) + bits.count("1")) * (10 * triples + 400) + triples * isqrt(digits**3)
    check_cap("a tensor power needs about {} operations, which", work, POWER_WORK_CAP)

    out = x
    for bit in bits:
        out = product(out, out)
        if bit == "1":
            out = product(out, x)
    return out.length


def growth_rate(x: FusionElement) -> GrowthRate:
    """Exponential growth rate of tensor-power lengths of x.

    Exact by construction: the length sequence is supermultiplicative, its
    n-th root converges to the Frobenius-Perron dimension, and that value
    is determined by the multiplicity vector alone.  The empirical length
    sequence is exercised in tests as a witness, never returned.
    """
    if x.is_zero:
        raise DomainError("zero element has no growth rate")
    return GrowthRate(x.p, x.multiplicities)


def module_growth_rate(v: JordanModule) -> GrowthRate:
    """Growth rate of the non-negligible summand count of tensor powers of
    v, an order-p module (`to_verlinde` refuses any other)."""
    from .modrep import to_verlinde

    image = to_verlinde(v)
    if image.is_zero:
        raise DomainError("negligible module: all tensor powers vanish")
    return growth_rate(image)


# ---------------------------------------------------------------------------
# Exact recovery of multiplicities from the folded q-integer identities
# ---------------------------------------------------------------------------


def _fold(j: int, p: int) -> int:
    """The label carrying [j]_q in the basis [1]_q .. [h]_q: [j]_q = [p-j]_q."""
    return min(j, p - j)


def recover_multiplicities(
    p: int, growth_vec, square_diff_vec
) -> tuple[int, ...]:
    """Recover the multiplicity vector from exact growth data, for p > 2.

    growth_vec carries the growth rate of V as an integer combination of
    the q-integers [j]_q; square_diff_vec carries the growth rate of the
    symmetric square minus that of the exterior square, in the same basis
    (entries may be negative).  The two identities

        sum_k m_k [k]_q     = sum_j g_j [j]_q
        sum_k m_k [k]_{q^2} = sum_j s_j [j]_q

    are read in the basis [1]_q .. [h]_q of the real subfield, h = (p-1)/2:
    [j]_q is U_{j-1}(cos pi/p), and cos pi/p has degree h over Q.  Since
    [j]_q = [p-j]_q, the first gives u_k = m_k + m_{p-k} = g_k + g_{p-k}.
    Times [2]_q, the second reads sum_k m_k [2k]_q = sum_j s_j ([j+1]_q +
    [j-1]_q), with [0]_q = [p]_q = 0 and [2k]_q = -[2(p-k)]_q, so that
    v_k = m_k - m_{p-k} is the coefficient of [fold(2k)]_q, and k -> fold(2k)
    is a bijection of 1..h.  Then m_k = (u_k + v_k)/2, m_{p-k} = (u_k - v_k)/2.
    """
    check_prime(p)
    if p == 2:
        raise DomainError("multiplicity recovery needs p > 2")
    g = [int(x) for x in growth_vec]
    s = [int(x) for x in square_diff_vec]
    if len(g) != p - 1 or len(s) != p - 1:
        raise DomainError(f"expected vectors of length {p - 1}")
    h = (p - 1) // 2
    times_two = [0] * (h + 1)  # [2]_q * sum_j s_j [j]_q on [0]_q = [p]_q = 0, [1]_q, .., [h]_q
    for j, c in enumerate(s, start=1):
        times_two[_fold(j - 1, p)] += c
        times_two[_fold(j + 1, p)] += c
    m = [0] * (p - 1)
    for k in range(1, h + 1):
        u = g[k - 1] + g[p - k - 1]
        v = times_two[_fold(2 * k, p)]
        if (u + v) % 2 or abs(v) > u:
            raise DomainError("no nonnegative integral solution for the multiplicities")
        m[k - 1], m[p - k - 1] = (u + v) // 2, (u - v) // 2
    return tuple(m)


# ---------------------------------------------------------------------------
# Structural checks of a module's growth data
# ---------------------------------------------------------------------------


class GrowthReport(Record):
    """Verdicts tying a module's dimension to its multiplicity vector.

    divisibility_mod_p: dim(V) - sum k*m_k is divisible by p (always).
    dimension_match:    dim(V) = sum k*m_k, tested only when dim <= p-1.
    growth_below_dim:   growth rate < dim(V), tested only when V is
                        faithful (has a block of size >= 2).
    """

    _fields = ("p", "dim", "blocks", "m", "rate", "divisibility_mod_p", "dimension_match", "growth_below_dim")

    def __init__(self, p: int, dim: int, blocks: tuple[int, ...], m: tuple[int, ...], rate: GrowthRate,
                 divisibility_mod_p: bool, dimension_match: bool | None, growth_below_dim: bool | None):
        key = (p, dim, blocks, m, rate, divisibility_mod_p, dimension_match, growth_below_dim)
        self.__dict__.update(zip(self._fields, key), _key=key)

    def checks(self) -> dict:
        return {
            "ii": self.divisibility_mod_p,
            "iii": self.dimension_match,
            "iv": self.growth_below_dim,
        }


def invariant_report(v: JordanModule) -> GrowthReport:
    """Compute the dimension/growth consistency checks for an order-p module
    (`to_verlinde` refuses any other)."""
    from .modrep import to_verlinde

    m = to_verlinde(v).multiplicities
    rate = GrowthRate(v.p, m)
    weighted = sum(k * mult for k, mult in enumerate(m, start=1))
    divisibility = (v.dim - weighted) % v.p == 0
    dimension_match = (v.dim == weighted) if v.dim <= v.p - 1 else None
    faithful = any(b >= 2 for b in v.blocks)
    below = bool(rate.numeric < v.dim) if faithful else None
    return GrowthReport(
        p=v.p,
        dim=v.dim,
        blocks=v.blocks,
        m=m,
        rate=rate,
        divisibility_mod_p=divisibility,
        dimension_match=dimension_match,
        growth_below_dim=below,
    )


def square_difference_vector(v: JordanModule) -> tuple[int, ...]:
    """Multiplicity vector of sym2(v) minus that of ext2(v) (entries may be < 0).

    This is the exact carrier of the growth data that recover_multiplicities
    consumes as its second argument.
    """
    from .modrep import ext2, sym2, to_verlinde

    s = to_verlinde(sym2(v)).multiplicities
    w = to_verlinde(ext2(v)).multiplicities
    return tuple(a - b for a, b in zip(s, w))


# ---------------------------------------------------------------------------
# p-adic dimension digits
# ---------------------------------------------------------------------------


class PadicDigits(Record):
    """Base-p digits t_0, t_1, ... of a p-adic dimension, least significant first."""

    _fields = ("p", "digits")

    def __init__(self, p: int, digits: tuple[int, ...]):
        check_prime(p)
        digits = tuple(int(d) for d in digits)
        if any(not 0 <= d < p for d in digits):
            raise DomainError("digits must lie in [0, p)")
        self.__dict__.update(p=p, digits=digits, _key=(p, digits))

    @classmethod
    def of_row(cls, p: int, row) -> PadicDigits:
        """The digits t_i = row[p^i], for every p^i below the length, of a row
        of the Lucas product prod_i (1 + z^(p^i))^(t_i) mod p: the factors
        below i reach at most z^(p^i - 1).  Nothing else of the row is read."""
        return cls(p, tuple(row[q] for q in takewhile(len(row).__gt__, (p**i for i in count()))))

    def as_integer(self) -> int:
        return sum(d * self.p**i for i, d in enumerate(self.digits))


def _lucas_row(digits, p: int, length: int):
    """The coefficients of prod_i (1 + z^(p^i))^(t_i) mod p from z^0 up to
    z^(length - 1), t_i = digits[i] for every p^i < length: a `bytearray`
    for p <= 256, where every residue fits a byte, a list otherwise.

    By Lucas' theorem this is C(n, k) mod p for n = sum t_i p^i.  The
    factors below i reach at most z^(p^i - 1), so the coefficients from
    z^(p^i) on are the Kronecker product of the digit row C(t_i, b) mod p
    with the first p^i: block b = 1 .. t_i is C(t_i, b) times them, and the
    rest up to z^(p^(i+1) - 1) is zero.  The digit row is made by
    C(t, b) = C(t, b - 1)(t - b + 1)/b and stops at the last b with
    b p^i < length, so a row costs its length, never p.  In bytes a block
    is one `translate` through the table of x -> c x mod p: `mods`, whose
    entry k is k mod p for k < p^2, read every c-th from 0 for p entries,
    padded to the 256 entries `translate` takes, so a table costs 256 bytes
    whatever c is.
    """
    narrow = p <= 256
    row = bytearray(b"\1"[:length]) if narrow else [1][:length]
    mods = bytes(range(p)) * p if narrow else b""
    step = 1
    for t in digits:
        if step >= length:
            break
        c = 1
        for b in range(1, min(t, (length - 1) // step) + 1):
            c = c * (t - b + 1) * pow(b, -1, p) % p
            size = min(step, length - b * step)
            if narrow:
                row += row[:size].translate(mods[:c * p:c].ljust(256, b"\0"))
            else:
                row += [c * x % p for x in islice(row, size)]
        step *= p
        zeros = min(step, length) - len(row)
        row += bytes(zeros) if narrow else [0] * zeros
    return row


def _residues(p: int, dims):
    """The entries of `dims`, read once, reduced mod p: a `bytearray` for
    p <= 256, a list otherwise.  For p <= 256 a list of int-likes already
    in [0, p) is narrowed in one C pass; any other list, and any other
    iterable, is coerced entry by entry.  Only a `list` is narrowed
    directly: `bytearray` of a buffer such as a numpy array or an
    `array.array` copies its raw memory, eight bytes for each int64 entry."""
    narrow = p <= 256
    if narrow and type(dims) is list:
        try:
            data = bytearray(dims)  # checks each entry's type and range [0, 256)
        except (TypeError, ValueError):
            pass
        else:
            if not data.translate(None, bytes(range(p))):  # nothing left once [0, p) is deleted
                return data
    series = []
    for x in dims:
        if isinstance(x, FpScalar):
            if x.p != p:
                raise DomainError("mixed moduli in the dimension sequence")
            series.append(x.value)
        else:
            series.append(int(x) % p)
    return bytearray(series) if narrow else series


def padic_digits(p: int, dims) -> PadicDigits:
    """Extract digits from the exterior-power dimension sequence.

    dims is an iterable, read once: dims[n] is the categorical dimension of
    the n-th exterior power, as an F_p scalar (or plain integer), with
    dims[0] = 1.  The generating function must factor as the Lucas product
    of (1 + z^(p^i))^(t_i), and a sequence not of that form is rejected
    loudly rather than approximated.  The digits are read off the series
    as `PadicDigits.of_row` reads them, and the product of their factors
    is built and compared with the series once.
    """
    check_prime(p)
    series = _residues(p, dims)
    if not series or series[0] != 1:
        raise DomainError("the dimension sequence must start with 1")
    digits = PadicDigits.of_row(p, series)
    if series != _lucas_row(digits.digits, p, len(series)):
        raise DomainError("dimension sequence is not a product of binomial factors")
    return digits


def binomials_mod_p(n: int, p: int, length: int) -> list[int]:
    """C(n, k) mod p for 0 <= k < length, n and length >= 0: the Lucas product over
    the base-p digits t_i of n; only the digits with p^i < length are read.
    Refused, before any entry is computed, when `length` exceeds
    FUSION_ENTRY_CAP."""
    check_prime(p)
    if n < 0:
        raise DomainError(f"binomial row {n} is negative")
    if length < 0:
        raise DomainError(f"binomial row length {length} is negative")
    check_cap("binomial row of {} entries", length, FUSION_ENTRY_CAP)
    row = _lucas_row((n // p**i % p for i in count()), p, length)
    return list(row) if p <= 256 else row


def exterior_dimension_sequence(v: JordanModule) -> list[FpScalar]:
    """Categorical dimensions of the exterior powers Lambda^0 v .. Lambda^d v.

    Lambda^k v has dimension C(d, k), d = dim v, so the sequence is the
    binomial row of d mod p and depends on d alone; no power is built.
    The requests the exterior powers themselves refuse are refused all the
    same: p = 2, and a power whose dimension exceeds the induced-matrix cap.
    """
    if v.p == 2:
        raise DomainError("exterior powers are only offered for p > 2")
    d, c = v.dim, 1
    for k in range(d // 2 + 1):  # C(d, k) rises up to k = d/2
        check_cap("induced matrix of dimension {}", c, INDUCED_DIM_CAP)
        c = c * (d - k) // (k + 1)
    return [FpScalar(x, v.p) for x in binomials_mod_p(d, v.p, d + 1)]


# ---------------------------------------------------------------------------
# Lower bounds from partition enumeration
# ---------------------------------------------------------------------------


def _check_bounds_args(p: int, d: int, cap: int):
    check_prime(p)
    check_cap("bound enumeration for p={}", p, cap)
    if not 1 <= d <= p - 1:
        raise DomainError(f"d={shown(d)} outside [1, {p - 1}]")


def plancherel_square_sum(p: int, d: int, cap: int = BOUNDS_PRIME_CAP) -> int:
    """Sum of squared irreducible dimensions over partitions of p-1 inside
    the d x (p-d) box: the box-confinement mass of the Plancherel measure,
    scaled by (p-1)!.  Here p - 1 = d + (p - d) - 1, so the sum is also
    (p-1)! less the two tails past the box, lam_1 > p - d and l(lam) > d;
    `box_square_sum` walks whichever side holds fewer partitions."""
    from .partitions import box_square_sum

    _check_bounds_args(p, d, cap)
    return box_square_sum(p - 1, d, p - d)


def plancherel_root(p: int, square_sum: int):
    """The Plancherel bound (square_sum)^(1/(2(p-1))), at working precision."""
    from .reals import root

    return root(square_sum, 2 * (p - 1))


def plancherel_bound(p: int, d: int, cap: int = BOUNDS_PRIME_CAP):
    """Growth lower bound (square_sum)^(1/(2(p-1))), at working precision."""
    return plancherel_root(p, plancherel_square_sum(p, d, cap))


class ImprovedBound(Record):
    """The max-Schur-dimension refinement of the growth lower bound.

    M is the largest dimension of a Schur module S^lam(K^d) over
    partitions of p-1 with at most d rows; ratio = d^(p-1) / M is then an
    exact lower bound for the sum of the corresponding symmetric-group
    dimensions (row_sum), and bound = ratio^(1/(p-1)).  box_sum restricts
    the same sum to the d x (p-d) box.  No asymptotic correction factor is
    modeled; only the exact finite-p quantities are reported.
    """

    _fields = ("p", "d", "bound", "max_schur_dim", "max_partition", "ratio", "row_sum", "box_sum")

    def __init__(self, p: int, d: int, bound, max_schur_dim: int, max_partition: tuple[int, ...], ratio: Fraction,
                 row_sum: int, box_sum: int):
        key = (p, d, bound, max_schur_dim, max_partition, ratio, row_sum, box_sum)
        self.__dict__.update(zip(self._fields, key), _key=key)


def improved_bound(p: int, d: int, cap: int = BOUNDS_PRIME_CAP) -> ImprovedBound:
    """One walk over the partitions of p-1 with at most d rows: row_sum,
    box_sum (first part at most p-d) and the largest Schur dimension, at
    the lexicographically least partition that reaches it."""
    from .partitions import box_walk
    from .reals import root

    _check_bounds_args(p, d, cap)
    best, best_parts, row_sum, box_sum = 0, (), 0, 0
    for parts, f, dim_s in box_walk(p - 1, d, p - 1, schur=True):
        row_sum += f
        if parts[0] <= p - d:
            box_sum += f
        if dim_s > best or dim_s == best and parts < best_parts:
            best, best_parts = dim_s, parts
    ratio = Fraction(d ** (p - 1), best)
    return ImprovedBound(
        p=p,
        d=d,
        bound=root(ratio, p - 1),
        max_schur_dim=best,
        max_partition=best_parts,
        ratio=ratio,
        row_sum=row_sum,
        box_sum=box_sum,
    )
