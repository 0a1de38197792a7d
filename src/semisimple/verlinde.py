"""The Verlinde fusion ring on the simple labels L_1 .. L_{p-1}.

Only Grothendieck-ring data is modeled: multiplicity vectors, the
truncated Clebsch-Gordan product, categorical dimension in F_p, and the
Frobenius-Perron dimension.  The fusion rule lives in `_summands`, the
label range of L_i (x) L_j, which `fusion` and `product` both read; it is
computed per pair and never stored.  It is cross-validated elsewhere
against prime-field linear algebra on Jordan blocks, and the closed-form
FP dimension against a numeric Perron-Frobenius eigenvalue; neither side
is trusted alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress
from operator import add

from .scalars import FUSION_ENTRY_CAP, DomainError, FpScalar, Record, check_cap, check_prime, shown


class FusionElement(Record):
    """A nonnegative integer combination of the simple labels L_1..L_{p-1}.

    `zero`, `unit` and `simple` refuse a p whose p - 1 multiplicities
    exceed FUSION_ENTRY_CAP; `from_json` is bounded by its own input.
    """

    _fields = ("p", "multiplicities")

    def __init__(self, p: int, multiplicities: tuple[int, ...]):
        check_prime(p)
        m = tuple(map(int, multiplicities))
        if len(m) != p - 1:
            raise DomainError(f"expected {p - 1} multiplicities, got {len(m)}")
        if min(m, default=0) < 0:
            raise DomainError("multiplicities must be nonnegative")
        self.__dict__.update(p=p, multiplicities=m, _key=(p, m))

    @classmethod
    def zero(cls, p: int) -> "FusionElement":
        return 0 * cls.unit(p)

    @classmethod
    def unit(cls, p: int) -> "FusionElement":
        return cls.simple(p, 1)

    @classmethod
    def simple(cls, p: int, k: int) -> "FusionElement":
        _check_fusion_args(p, p - 1, FUSION_ENTRY_CAP)
        if not 1 <= k <= p - 1:
            raise DomainError(f"label {shown(k)} outside [1, {p - 1}]")
        m = [0] * (p - 1)
        m[k - 1] = 1
        return cls(p, tuple(m))

    @property
    def is_zero(self) -> bool:
        return not any(self.multiplicities)

    @property
    def length(self) -> int:
        """Total number of simple summands, counted with multiplicity."""
        return sum(self.multiplicities)

    def __add__(self, other: "FusionElement") -> "FusionElement":
        if not isinstance(other, FusionElement):
            return NotImplemented
        if other.p != self.p:
            raise DomainError("cannot add fusion elements for different primes")
        return FusionElement(
            self.p, tuple(a + b for a, b in zip(self.multiplicities, other.multiplicities))
        )

    def __rmul__(self, n: int) -> "FusionElement":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return FusionElement(self.p, tuple(n * a for a in self.multiplicities))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, m in enumerate(self.multiplicities, start=1):
            if m == 0:
                continue
            label = "1" if k == 1 else f"L{k}"
            parts.append(label if m == 1 else f"{m}.{label}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"p": self.p, "m": list(self.multiplicities)}

    @classmethod
    def from_json(cls, doc: dict) -> "FusionElement":
        return cls(int(doc["p"]), tuple(doc["m"]))


def _summands(p: int, i: int, j: int) -> range:
    """The labels of L_i (x) L_j, each once: |i-j|+1, |i-j|+3, .. up to
    |i-j| + 2 min(i, j, p-i, p-j) - 1 (truncated Clebsch-Gordan)."""
    return range(abs(i - j) + 1, abs(i - j) + 2 * min(i, j, p - i, p - j), 2)


def _check_fusion_args(p: int, count: int, cap: int):
    check_prime(p)
    check_cap("fusion document of {} multiplicities", count, cap)


def fusion(p: int, i: int, j: int, cap: int = FUSION_ENTRY_CAP) -> FusionElement:
    """Product L_i (x) L_j by the truncated Clebsch-Gordan rule.

    The summands are L_{|i-j|+2l-1} for l = 1 .. min(i, j, p-i, p-j); all
    multiplicities are 0 or 1.  Refused when its p - 1 multiplicities
    exceed `cap`.
    """
    _check_fusion_args(p, p - 1, cap)
    if not (1 <= i <= p - 1 and 1 <= j <= p - 1):
        raise DomainError(f"labels ({shown(i)}, {shown(j)}) outside [1, {p - 1}]")
    m = [0] * (p - 1)
    for k in _summands(p, i, j):
        m[k - 1] = 1
    return FusionElement(p, tuple(m))


def product(x: FusionElement, y: FusionElement) -> FusionElement:
    """Bilinear extension of the fusion rule; commutative."""
    if x.p != y.p:
        raise DomainError("fusion product across different primes")
    p = x.p
    out = [0] * (p - 1)
    ys = [(j, b) for j, b in enumerate(y.multiplicities, start=1) if b]
    for i, a in enumerate(x.multiplicities, start=1):
        if a:
            for j, b in ys:
                ab = a * b
                for k in _summands(p, i, j):
                    out[k - 1] += ab
    return FusionElement(p, tuple(out))


def cat_dim(x: FusionElement) -> FpScalar:
    """Categorical dimension: sum of k * m_k reduced into F_p."""
    return FpScalar(sum(k * m for k, m in enumerate(x.multiplicities, start=1)), x.p)


def fp_dim(x: FusionElement):
    """Frobenius-Perron dimension: sum of m_k [k]_q, a Decimal of WORKING_DPS digits.

    [k]_q = [p-k]_q, so the weight of label k <= p/2 is m_k + m_{p-k} (at
    p = 2 the one label is its own partner); `reals.q_combination` sums the
    nonzero folded weights by the Chebyshev recurrence from one cosine and
    rounds once.  A simple label L_k folds to the one weight `q_int` gives, so it
    gets exactly `q_int(p, k)`."""
    from .reals import q_combination

    p, m = x.p, x.multiplicities
    half = (p - 1) // 2
    folded = m if p == 2 else list(map(add, m[:half], m[: -half - 1 : -1]))
    return q_combination(p, compress(enumerate(folded, 1), folded))


def is_invertible(x: FusionElement) -> bool:
    """True iff x is a single simple label whose square is the unit.

    Every simple label is self-dual, so this is x (x) x = 1, verified
    through the product, not by pattern matching on the label; concretely
    it holds exactly for L_1 and L_{p-1}.
    """
    if x.is_zero:
        raise DomainError("zero element is not an object")
    if x.length != 1:
        return False
    return product(x, x) == FusionElement.unit(x.p)


def in_plus_subring(x: FusionElement) -> bool:
    """True iff x only involves odd labels (the index-2 subring for p > 2)."""
    return all(m == 0 for k, m in enumerate(x.multiplicities, start=1) if k % 2 == 0)


def fusion_table(p: int, cap: int = FUSION_ENTRY_CAP) -> Iterator[tuple[int, int, FusionElement]]:
    """The full (p-1) x (p-1) fusion table, rows ordered by (i, j), one at a time.

    Refused at the call, before any row is made, when its (p-1)^3
    multiplicities exceed `cap`.
    """
    _check_fusion_args(p, (p - 1) ** 3, cap)
    return ((i, j, fusion(p, i, j, cap)) for i in range(1, p) for j in range(1, p))
