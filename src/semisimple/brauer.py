"""Walled Brauer diagram calculus with a polynomial loop parameter.

Objects are pairs [r, s] (r tensor factors of the generating object, s of
its dual).  A morphism [r, s] -> [u, v] is an integer-polynomial linear
combination of wall-respecting perfect matchings on the r+s+u+v endpoints.
Composition stacks diagrams and converts every closed loop into one factor
of t; the trace closes a diagram up and counts loops the same way.

Endpoint numbering: bottom row left to right, then top row left to
right.  In each row the up-arrows come first: bottom indices [0, r) point
up and [r, r+s) point down; with B = r + s, top indices [B, B+u) point up
and [B+u, B+u+v) point down.  A diagram stores its matching once, as the
involution `match` of these endpoints (match[x] is x's partner); all
comparisons use it.  `pairs` is its sorted view, each pair from its
smaller end in increasing order: the normal form of JSON, repr and the
term order.  Every strand joins an outgoing endpoint (a bottom up or a
top down) to an incoming one (a bottom down or a top up), and the
incoming endpoints are the one range [r, B+u) (`_incoming`); validation
and the hom basis read it there.  `_class_starts` gives the four class
starts that juxtaposition and the braiding renumber by.  Stacking and
closing both follow the alternating walks of two overlaid involutions
(`_walks`).

Gram matrices are group matrices of S_d.  A hom space of degree d has one
basis diagram per permutation sigma of range(d), and the trace pairing of
diagrams i and j closes exactly cycles(sigma_i^-1 sigma_j) loops.  So the
Gram matrix is t^E with E a d! x d! exponent matrix that depends on d
alone (`_gram_exponents`); it is the matrix of multiplication by the
central element sum_g t^cycles(g) g of the group algebra.

By the Jucys-Murphy factorisation that element is prod_k (t + J_k), and it
acts on the Specht module of a partition lam of d by prod (t + c) over the
contents c of lam's boxes.  Where F_p[S_d] is semisimple (over Q, and in
F_p for p > d) the Specht modules are the simple modules, each occurring
f_lam times in the group algebra, so the rank is the sum of f_lam^2 over
the lam whose product is nonzero: read off the partitions of d, with no
elimination.  The contents of lam fill the interval [1 - rows, lam_1 - 1],
so lam drops out exactly when that interval holds a root, a c in (-d, d)
with t + c = 0 over Q or mod p.  Read as a box: a root c <= 0 allows at
most -c rows and a root c > 0 parts of at most c, so the survivors are the
partitions of d in the box the least such bounds give, and the rank is
`partitions.box_square_sum` over it.

For t in F_p with p <= d the group algebra is not semisimple and the
content products do not give the rank; the semisimplification of the
representations of GL_n does, in five steps.  Let n in [0, p) be the
residue of t and V = K^n over an algebraic closure K of F_p.

1. sigma acts on V^(x)d by permuting the factors, with trace
   n^cycles(sigma), so up to the order of its rows the Gram matrix t^E is
   the trace form of K[S_d] acting on V^(x)d.
2. Schur-Weyl duality holds over any infinite field (de Concini-Procesi
   1976): K[S_d] maps onto End_GL_n(V^(x)d).  So the rank is that of the
   trace form on End_GL_n(V^(x)d), whose radical is the negligible
   morphisms.
3. By semisimplification (Etingof-Ostrik, On semisimplification of tensor
   categories) the quotient is the sum of Mat_{m_T}(K) over the
   indecomposable summands T of V^(x)d with dim T != 0 in K, m_T the
   multiplicity of T; these summands are tilting modules T(lam).  So the
   rank is the sum of the m_T^2.
4. For n < p the T(lam) with dim T(lam) != 0 are those with lam in the
   fundamental alcove, lam_1 - lam_n <= p - n, and in the quotient V (x) -
   adds one box to lam while staying in the alcove (Georgiev-Mathieu,
   Fusion rings for modular representations of Chevalley groups, 1994;
   Andersen 1992).  So m_lam counts the standard tableaux of shape lam
   whose prefixes all stay in the alcove, and the rank is
   `partitions.alcove_square_sum(d, n, p - n)`, 0 at n = 0.
5. For d < p the alcove is the content box n x (p - n): a partition with
   n rows and lam_1 > p - n has more than p - 1 boxes.  So the two routes
   agree where both apply, and the box walk, the faster, serves d < p.

End([r, s]) is the walled Brauer algebra B_{r,s}(t), and whether it is
semisimple over Q is read off a closed criterion with no elimination.  For
r, s > 0 in characteristic 0, B_{r,s}(t) is semisimple iff t is not an
integer, or |t| > r + s - 2, or t = 0 and (r, s) is one of (1, 2), (1, 3),
(2, 1), (3, 1) (Cox, De Visscher, Doty and Martin, On the blocks of the
walled Brauer algebra, J. Algebra 320 (2008), Theorem 6.3).  With r = 0 or
s = 0 no composite closes a loop, so End([r, s]) is the group algebra
Q[S_d] at every t, semisimple by Maschke's theorem.  The rank of the
regular trace form (endomorphism_trace_form, Dickson's criterion) is the
independent check of both statements.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

from .exact import T, TPolynomial
from .partitions import alcove_square_sum, box_square_sum
from .scalars import DEGREE_CAP, HOMDIM_DEGREE_CAP, PRODUCT_WORK_CAP, DomainError, FpScalar, Record, check_cap


class BiObject(Record):
    """The object [r, s]: r covariant and s contravariant tensor factors."""

    _fields = ("r", "s")

    def __init__(self, r: int, s: int):
        if r < 0 or s < 0:
            raise DomainError("object indices must be nonnegative")
        self.__dict__.update(r=r, s=s, _key=(r, s))

    @property
    def total(self) -> int:
        return self.r + self.s

    def dual(self) -> "BiObject":
        return BiObject(self.s, self.r)

    def __matmul__(self, other: "BiObject") -> "BiObject":
        return BiObject(self.r + other.r, self.s + other.s)

    def __str__(self):
        return f"[{self.r},{self.s}]"


def _class_starts(source: BiObject, target: BiObject) -> tuple[int, int, int, int]:
    """First endpoint of each class in the normal form: bottom ups, bottom
    downs, top ups, top downs, of source.r, source.s, target.r and target.s
    endpoints.  Class c has its row in bit 1 and its direction in bit 0."""
    bottom = source.total
    return 0, source.r, bottom, bottom + target.r


def _incoming(source: BiObject, target: BiObject) -> range:
    """The incoming endpoints, bottom downs then top ups: one range."""
    return range(source.r, source.total + target.r)


class WalledDiagram(Record):
    """A wall-respecting perfect matching; a basis morphism source -> target.

    Stored once, as the fixed-point-free involution `match` of the
    endpoints (match[x] is x's partner), which == and hash compare and the
    walks read; `pairs` is its sorted view."""

    _fields = ("source", "target", "pairs")

    def __init__(self, source: BiObject, target: BiObject, pairs: tuple[tuple[int, int], ...]):
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs):
            raise DomainError("each diagram pair must join two endpoints")
        seen = [x for pair in pairs for x in pair]
        if not all(type(x) is int for x in seen):  # 0.0 == 0 and True == 1 would pass the matching check
            raise DomainError("diagram endpoints must be integers")
        if sorted(seen) != list(range(source.total + target.total)):
            raise DomainError("pairs do not form a perfect matching of the endpoints")
        match = [0] * len(seen)
        for x, y in pairs:
            match[x], match[y] = y, x
        incoming = _incoming(source, target)
        for x, y in enumerate(match):
            if x < y and (x in incoming) == (y in incoming):
                raise DomainError(f"pair {(x, y)} does not join an outgoing endpoint to an incoming one")
        match = tuple(match)
        self.__dict__.update(source=source, target=target, match=match, _key=(source, target, match))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The matching as pairs, each from its smaller end, in increasing order."""
        return tuple((x, y) for x, y in enumerate(self.match) if x < y)

    def flip(self) -> "WalledDiagram":
        """Top-to-bottom reflection: the canonical image in Hom(target, source).

        The top row moves down, ahead of the bottom row: each endpoint
        moves up by the top's size, cyclically."""
        n, top = len(self.match), self.target.total
        return WalledDiagram(self.target, self.source, tuple(((x + top) % n, (y + top) % n) for x, y in self.pairs))

    def to_json(self) -> dict:
        return {
            "source": [self.source.r, self.source.s],
            "target": [self.target.r, self.target.s],
            "pairs": [list(pair) for pair in self.pairs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WalledDiagram":
        return cls(*_json_objects(doc), _json_pairs(doc))


def _json_objects(doc) -> tuple[BiObject, BiObject]:
    """The source and target of a diagram or morphism document, each a list
    of two integers; a document of any other shape is refused."""
    if not isinstance(doc, dict):
        raise DomainError("a morphism document must be a JSON object")
    objects = doc["source"], doc["target"]
    for name, value in zip(("source", "target"), objects):
        if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(type(x) is int for x in value)):
            raise DomainError(f"'{name}' must be a list of two integers")
    return BiObject(*objects[0]), BiObject(*objects[1])


def _json_pairs(doc: dict) -> tuple:
    """The `pairs` list of a diagram document; `WalledDiagram` checks each pair."""
    pairs = doc["pairs"]
    if not isinstance(pairs, (list, tuple)):
        raise DomainError("'pairs' must be a list of endpoint pairs")
    return tuple(pairs)


def identity_diagram(obj: BiObject) -> WalledDiagram:
    n = obj.total
    return WalledDiagram(obj, obj, tuple((i, n + i) for i in range(n)))


def _hom_degree(source: BiObject, target: BiObject, cap: int) -> int | None:
    """The degree d = r + v of Hom(source, target), or None for a zero space."""
    d = source.r + target.s
    if d != source.s + target.r:
        return None
    check_cap("hom space of degree {0} ({0}! diagrams)", d, cap)
    return d


def hom_basis(source: BiObject, target: BiObject, cap: int = DEGREE_CAP) -> list[WalledDiagram]:
    """All walled diagrams source -> target, in a fixed deterministic order.

    Empty unless r + v = s + u; otherwise there are exactly d! diagrams
    (d = r + v), one per bijection between the outgoing endpoints (bottom
    ups, top downs) and the incoming ones (bottom downs, top ups), in the
    order of itertools.permutations(range(d)).
    """
    d = _hom_degree(source, target, cap)
    if d is None:
        return []
    incoming = _incoming(source, target)
    outgoing = [*range(incoming.start), *range(incoming.stop, source.total + target.total)]
    out = []
    for perm in itertools.permutations(range(d)):
        pairs = tuple((outgoing[i], incoming[perm[i]]) for i in range(d))
        out.append(WalledDiagram(source, target, pairs))
    return out


def _walks(first: Sequence, second: Sequence, ends) -> tuple[dict[int, int], int]:
    """Follow two overlaid matchings on the nodes 0..n-1, alternating.

    first[v] and second[v] are v's partners, or None where that matching
    misses v.  Each node in `ends` is met by one matching and every other
    node by both, so the components are paths between two ends plus closed
    cycles.  Returns the far end of the path from each end, and the number
    of cycles.
    """
    far: dict[int, int] = {}
    seen = [False] * len(first)
    for v in ends:
        if v in far:
            continue
        here, there = (first, second) if first[v] is not None else (second, first)
        cur = here[v]
        while there[cur] is not None:
            seen[cur] = True
            here, there = there, here
            cur = here[cur]
        far[v], far[cur] = cur, v
    cycles = 0
    for v in range(len(first)):
        if seen[v] or first[v] is None or second[v] is None:
            continue
        cycles += 1
        cur = v
        while not seen[cur]:
            seen[cur] = seen[first[cur]] = True
            cur = second[first[cur]]
    return far, cycles


def _stack(top: WalledDiagram, bottom: WalledDiagram) -> tuple[tuple[tuple[int, int], ...], int]:
    """Stack `bottom` (A -> B) under `top` (B -> C); return (pairs, loops).

    Shared node ids: 0..a-1 the A endpoints, a..a+b-1 the middle row,
    a+b..a+b+c-1 the C endpoints: the walks read bottom's `match` padded
    with None on the C ids, and top's moved up by a.  Every middle node
    carries exactly one edge from each diagram, so the walks join boundary
    nodes in pairs, and each closed middle cycle contributes one loop.  The
    pairs are those of the diagram A -> C, already its sorted view of
    `match`: `_walks` records each path from its smaller end, in increasing
    order, so no diagram is built.
    """
    if bottom.target != top.source:
        raise DomainError(
            f"cannot stack: middle objects {bottom.target} and {top.source} differ"
        )
    a = bottom.source.total
    b = bottom.target.total
    n = a + b + top.target.total
    # bottom's endpoints already live on ids 0..a+b-1; top's shift by a: middle ids a..a+b-1, C ids a+b..
    far, loops = _walks(bottom.match + (None,) * (n - a - b), [None] * a + [a + y for y in top.match],
                        itertools.chain(range(a), range(a + b, n)))

    def final(v: int) -> int:
        return v if v < a else v - b

    return tuple((final(v), final(w)) for v, w in far.items() if v < w), loops


def _juxtapose(d1: WalledDiagram, d2: WalledDiagram) -> WalledDiagram:
    """Place d2 to the right of d1, renumbering into the [r, s] normal form:
    each endpoint keeps its class, and d1's come first within each class."""
    source, target = d1.source @ d2.source, d1.target @ d2.target
    starts = _class_starts(source, target)
    pairs = []
    skip = (0, 0, 0, 0)
    for dia in (d1, d2):
        sizes = (dia.source.r, dia.source.s, dia.target.r, dia.target.s)
        new = [starts[c] + skip[c] + i for c in range(4) for i in range(sizes[c])]
        pairs += [(new[x], new[y]) for x, y in dia.pairs]
        skip = sizes
    return WalledDiagram(source, target, tuple(pairs))


def _closure_loops(d: WalledDiagram) -> int:
    """Loops after joining bottom endpoint i to top endpoint i for all i."""
    n = d.source.total
    return _walks(d.match, [*range(n, 2 * n), *range(n)], ())[1]


def _coerce_coeff(c) -> TPolynomial:
    if isinstance(c, TPolynomial):
        return c
    if type(c) is int:  # a bool is no coefficient, as it is no endpoint
        return TPolynomial((c,))
    raise DomainError(f"diagram coefficients must be integer polynomials, got {type(c).__name__}")


class DiagramMorphism(Record):
    """A finite linear combination of walled diagrams with one source/target.

    Unhashable: its terms are a read-only view of a dict."""

    __hash__ = None

    def __init__(self, source: BiObject, target: BiObject, terms=()):
        data: dict[WalledDiagram, TPolynomial] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for dia, coeff in items:
            if dia.source != source or dia.target != target:
                raise DomainError("term does not match the morphism's source/target")
            coeff = _coerce_coeff(coeff)
            if dia in data:
                coeff = data[dia] + coeff
            data[dia] = coeff
        terms = MappingProxyType({d: c for d, c in data.items() if not c.is_zero})
        self.__dict__.update(source=source, target=target, terms=terms, _key=(source, target, terms))

    def __reduce__(self):
        return DiagramMorphism, (self.source, self.target, dict(self.terms))

    @classmethod
    def from_diagram(cls, dia: WalledDiagram, coeff=1) -> "DiagramMorphism":
        return cls(dia.source, dia.target, [(dia, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiagramMorphism") -> "DiagramMorphism":
        if not isinstance(other, DiagramMorphism):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            raise DomainError("cannot add morphisms between different objects")
        return DiagramMorphism(self.source, self.target, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "DiagramMorphism") -> "DiagramMorphism":
        if not isinstance(other, DiagramMorphism):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar) -> "DiagramMorphism":
        c = _coerce_coeff(scalar)
        return DiagramMorphism(
            self.source, self.target, [(d, c * v) for d, v in self.terms.items()]
        )

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            body = " + ".join(f"({c})*{d.pairs}" for d, c in sorted(self.terms.items(), key=lambda t: t[0].pairs))
        return f"<{self.source} -> {self.target}: {body}>"

    def to_json(self) -> dict:
        ordered = sorted(self.terms.items(), key=lambda item: item[0].pairs)
        return {
            "source": [self.source.r, self.source.s],
            "target": [self.target.r, self.target.s],
            "terms": [
                {"pairs": [list(p) for p in d.pairs], "coeff": str(c)} for d, c in ordered
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DiagramMorphism":
        source, target = _json_objects(doc)
        if "terms" not in doc and "pairs" in doc:  # bare diagram: coefficient 1
            return cls.from_diagram(WalledDiagram(source, target, _json_pairs(doc)))
        terms = doc["terms"]
        if not (isinstance(terms, (list, tuple)) and all(isinstance(term, dict) for term in terms)):
            raise DomainError("'terms' must be a list of objects")
        items = []
        for term in terms:
            dia = WalledDiagram(source, target, _json_pairs(term))
            coeff = term.get("coeff", 1)
            items.append((dia, TPolynomial.parse(coeff) if isinstance(coeff, str) else coeff))
        return cls(source, target, items)


def identity(obj: BiObject) -> DiagramMorphism:
    return DiagramMorphism.from_diagram(identity_diagram(obj))


def _check_product_work(f: DiagramMorphism, g: DiagramMorphism, nodes: int) -> None:
    """Refuse a product of f and g whose diagrams have `nodes` endpoints
    when its estimated work passes PRODUCT_WORK_CAP."""

    def sizes(m: DiagramMorphism) -> tuple[int, int, int]:  # terms, dense and nonzero coefficient entries
        cs = [c.coeffs for c in m.terms.values()]
        return len(cs), sum(map(len, cs)), sum(len(c) - c.count(0) for c in cs)

    (nf, df, zf), (ng, dg, zg) = sizes(f), sizes(g)
    work = nf * ng * (128 + 16 * nodes) + 4 * (ng * df + nf * dg) + zf * zg
    check_cap(f"a product of {nf} by {ng} terms needs about {{}} coefficient operations, which", work, PRODUCT_WORK_CAP)


def compose(f: DiagramMorphism, g: DiagramMorphism) -> DiagramMorphism:
    """f o g, stacking diagram by diagram; every closed loop becomes a factor t."""
    if g.target != f.source:
        raise DomainError(f"cannot compose: {g.target} feeds into {f.source}")
    _check_product_work(f, g, g.source.total + g.target.total + f.target.total)
    stacked = ((_stack(df, dg), cf * cg) for dg, cg in g.terms.items() for df, cf in f.terms.items())
    return DiagramMorphism(g.source, f.target, ((WalledDiagram(g.source, f.target, pairs), c * T**loops)
                                                for (pairs, loops), c in stacked))


def tensor(f: DiagramMorphism, g: DiagramMorphism) -> DiagramMorphism:
    """Side-by-side tensor product; coefficients multiply, no loops arise."""
    _check_product_work(f, g, f.source.total + f.target.total + g.source.total + g.target.total)
    terms = ((_juxtapose(d1, d2), c1 * c2) for d1, c1 in f.terms.items() for d2, c2 in g.terms.items())
    return DiagramMorphism(f.source @ g.source, f.target @ g.target, terms)


def braiding(a: BiObject, b: BiObject) -> DiagramMorphism:
    """The symmetry a (x) b -> b (x) a: every strand crosses the other block."""
    source, target = a @ b, b @ a
    starts = _class_starts(source, target)
    pairs = []
    for c, n, moved in ((0, source.r, b.r), (1, source.s, b.s)):
        # bottom class c lists a's endpoints then b's, top class c + 2 b's then a's:
        # the k-th of the n bottom ones meets top (k + moved) mod n
        pairs += [(starts[c] + k, starts[c + 2] + (k + moved) % n) for k in range(n)]
    return DiagramMorphism.from_diagram(WalledDiagram(source, target, tuple(pairs)))


def trace(f: DiagramMorphism) -> TPolynomial:
    """Diagrammatic trace of an endomorphism: close up all strands.

    Each closed loop contributes one factor of t, so a single diagram
    traces to t^(number of loops); extended linearly.
    """
    if f.source != f.target:
        raise DomainError("trace requires an endomorphism")
    out = TPolynomial()
    for dia, coeff in f.terms.items():
        out = out + coeff * T ** _closure_loops(dia)
    return out


def _gram_exponents(d: int) -> list[list[int]]:
    """E[i][j] = cycles(sigma_i^-1 sigma_j) over the permutations of range(d).

    The permutations are in hom_basis order, so on every hom space of
    degree d the Gram entry of basis diagrams i and j is t^E[i][j].  A
    cycle is counted at its smallest point: x starts a cycle when no point
    of its orbit x, sigma(x), .. sigma^(d-1)(x) is smaller.
    """
    if d < 2:  # itemgetter needs two points to return a tuple
        return [[d]]
    perms = list(itertools.permutations(range(d)))
    cycles = {sigma: sum(x == min(itertools.accumulate(range(1, d), lambda y, _: sigma[y], initial=x))
                         for x in range(d)) for sigma in perms}
    after = [itemgetter(*sigma) for sigma in perms]  # after[j](h) = h o sigma_j
    inverses = (sorted(range(d), key=sigma.__getitem__) for sigma in perms)
    return [[cycles[g(inverse)] for g in after] for inverse in inverses]


def _powers(t_value, d: int) -> list:
    """t^0 .. t^d: integer polynomials for "symbolic", exact values at t_value otherwise."""
    powers = [T**k for k in range(d + 1)]
    return powers if t_value == "symbolic" else [x.evaluate(t_value) for x in powers]


def gram_matrix(source: BiObject, target: BiObject, t_value="symbolic", cap: int = DEGREE_CAP):
    """Gram matrix of the trace pairing on Hom(source, target).

    Entry (i, j) is the trace of d_i o flip(d_j), which is t raised to the
    exponent in `_gram_exponents`.  With t_value="symbolic" the entries are
    integer polynomials in t; otherwise they are evaluated exactly at the
    given rational or prime-field point.
    """
    d = _hom_degree(source, target, cap)
    if d is None:
        return []
    powers = _powers(t_value, d)
    return [[powers[e] for e in row] for row in _gram_exponents(d)]


def negligible_rank(source: BiObject, target: BiObject, t_value, cap: int = DEGREE_CAP) -> tuple[int, int]:
    """Rank of the Gram matrix at an exact parameter value.

    The rank equals the dimension of the hom space once negligible
    morphisms are quotiented away, so it is returned twice: (rank,
    quotient dimension).  Where F_p[S_d] is semisimple (t rational, or t
    in F_p with p > d) it is the sum of f_lam^2 over the partitions lam of
    d with no box of content c where t + c = 0, the box those roots c
    describe.  For t in F_p with p <= d it is the sum of m_lam^2 over the
    tableaux of the fundamental alcove of GL_n, n the residue of t (the
    module docstring has both proofs).
    """
    if t_value == "symbolic" or not isinstance(t_value, (int, Fraction, FpScalar)):
        raise DomainError("negligible rank needs an exact (rational or F_p) parameter value")
    d = _hom_degree(source, target, cap)
    if d is None:
        return 0, 0
    if isinstance(t_value, FpScalar) and t_value.p <= d:
        rank = alcove_square_sum(d, t_value.value, t_value.p - t_value.value)
    else:
        roots = [c for c in range(1 - d, d) if t_value + c == 0]
        rows = min((-c for c in roots if c <= 0), default=d)
        cols = min((c for c in roots if c > 0), default=d)
        rank = box_square_sum(d, rows, cols)
    return rank, rank


def schur_weyl_homdim(n: int, source: BiObject, target: BiObject) -> int:
    """Hom-space dimension over the rank-n classical group, via characters.

    After moving duals across, the dimension is the sum of squared
    symmetric-group irreducible dimensions over partitions of d with at
    most n rows, d! when n >= d.  That is the box negligible_rank sums
    over at t = n, so the independent check of both is eliminating the
    Gram matrix.  Its other side is d! less the sum over the partitions of
    more than n rows, whichever holds fewer partitions: at n = 20 and
    degree 40, 2,087 partitions against 35,251.  Degrees
    above HOMDIM_DEGREE_CAP are refused before any partition is enumerated.
    """
    if n < 1:
        raise DomainError("the classical-group rank n must be >= 1")
    d = source.r + target.s
    if d != source.s + target.r:
        return 0
    check_cap("character sum of degree {}", d, HOMDIM_DEGREE_CAP)
    return box_square_sum(d, n, d)


def endomorphism_trace_form(obj: BiObject, t_value="symbolic", cap: int = DEGREE_CAP):
    """Trace form of the left regular representation of End([r, s]).

    T[i][j] is the matrix trace of left multiplication by b_i o b_j.  Over
    the rationals its rank detects the radical of the *algebra* (Dickson's
    criterion in characteristic zero), as opposed to the categorical trace
    pairing of gram_matrix, whose radical is the negligible ideal.
    """
    basis = hom_basis(obj, obj, cap=cap)
    n = len(basis)
    index = {d.pairs: i for i, d in enumerate(basis)}
    prod: list[list[tuple[int, int]]] = []  # (basis index, loop count) of b_i o b_j
    for di in basis:
        row = []
        for dj in basis:
            pairs, loops = _stack(di, dj)
            row.append((index[pairs], loops))
        prod.append(row)
    powers = _powers(t_value, obj.total)
    # trace of left multiplication by b_k
    reg_trace = []
    for k in range(n):
        tr = 0
        for j in range(n):
            idx, loops = prod[k][j]
            if idx == j:
                tr = tr + powers[loops]
        reg_trace.append(tr)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            idx, loops = prod[i][j]
            row.append(powers[loops] * reg_trace[idx])
        rows.append(row)
    return rows


def algebra_is_semisimple(obj: BiObject, t_value, cap: int = DEGREE_CAP) -> bool:
    """Whether End([r, s]) at a rational parameter value is a semisimple algebra.

    Read off the walled Brauer criterion of Cox-De Visscher-Doty-Martin
    (module docstring); the rank of endomorphism_trace_form is its oracle.
    """
    if not isinstance(t_value, (int, Fraction)):
        raise DomainError("algebra semisimplicity is tested over the rationals")
    d = _hom_degree(obj, obj, cap)
    return (0 in (obj.r, obj.s) or t_value % 1 != 0 or abs(t_value) > d - 2  # Q[S_d]; t not in Z; |t| > d - 2
            or (t_value == 0 and 2 < d < 5 and 1 in (obj.r, obj.s)))
