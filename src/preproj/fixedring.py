"""Generators, relations and module diagnostics for fixed rings.

The fixed ring A^G is spanned by the normal-form paths whose eigenvalue is 1
under every group generator.  This module finds a minimal set of generating
paths, discovers the binomial relations among them, certifies presentations
by counting irreducible words with a transfer-matrix automaton, and compares
the Hilbert data of A over A^G to decide whether A can be free or projective
as an A^G-module at the level of graded dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import CycNum
from .ratfun import (
    Poly,
    RatFun,
    RatMatrix,
    SingularMatrixError,
    mat_inverse,
    poly_div_exact,
)
from .molien import hilbert_A, hilbert_eA, matrix_hilbert_A, molien_report
from .quiver import AutGroup, SimplePath
from .trace import eigenvalue_table


# ---------------------------------------------------------------------------
# fixed paths and minimal generators

def fixed_paths_up_to(G: AutGroup, D: int) -> list[SimplePath]:
    """All normal-form paths of degree <= D fixed by the whole group."""
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    n = G.n
    tables = [eigenvalue_table(g, D) for g in G.generators]
    out = []
    for d in range(D + 1):
        for start in range(1, n + 1):
            for m in range(d + 1):
                key = (start, m, d - m)
                if all(table[key].is_one() for table in tables):
                    out.append(SimplePath(n, start, m, d - m))
    return out


def _purity(path: SimplePath) -> str:
    if path.k == 0 and path.m > 0:
        return "purely-nonstar"
    if path.m == 0 and path.k > 0:
        return "purely-star"
    return "mixed"


@dataclass(frozen=True)
class FixedGenerator:
    path: SimplePath
    degree: int
    purity: str
    label: str = ""


def default_generator_order(path: SimplePath):
    """Sort key: degree, then star count, then start vertex, then shape."""
    return (path.degree, path.k, path.start, path.m)


def minimal_generators(G: AutGroup, D: int | None = None) -> list[FixedGenerator]:
    """Fixed paths not factorable through two shorter fixed paths.

    The degree bound defaults to 2 * n * exponent(G); completeness within
    any bound should be certified afterwards with verify_generators.
    """
    if D is None:
        D = 2 * G.n * G.exponent()
    fixed = {(p.start, p.m, p.k) for p in fixed_paths_up_to(G, D)}
    n = G.n
    gens = []
    for start, m, k in fixed:
        d = m + k
        if d == 0:
            continue
        factorable = False
        for m1 in range(m + 1):
            for k1 in range(k + 1):
                if 0 < m1 + k1 < d:
                    mid = (start - 1 + m1 - k1) % n + 1
                    if (start, m1, k1) in fixed and (mid, m - m1, k - k1) in fixed:
                        factorable = True
                        break
            if factorable:
                break
        if not factorable:
            path = SimplePath(n, start, m, k)
            gens.append(FixedGenerator(path, d, _purity(path)))
    gens.sort(key=lambda g: default_generator_order(g.path))
    return [
        FixedGenerator(g.path, g.degree, g.purity, "g%d" % (i + 1))
        for i, g in enumerate(gens)
    ]


def coverage_warnings(n: int, gens) -> list[str]:
    """Vertices missing a purely-star or purely-nonstar generator.

    Such generators always exist at some degree, so a gap means the search
    bound was too small.
    """
    paths = [_as_path(g) for g in gens]
    warnings = []
    for v in range(1, n + 1):
        for purity in ("purely-nonstar", "purely-star"):
            if not any(p.start == v and _purity(p) == purity for p in paths):
                warnings.append("vertex %d has no %s generator" % (v, purity))
    return warnings


def _as_path(g) -> SimplePath:
    return g.path if isinstance(g, FixedGenerator) else g


def verify_generators(G: AutGroup, gens, D: int):
    """Do the given paths generate all fixed paths up to degree D?

    Returns (True, None) on success, otherwise (False, first failing degree).
    """
    paths = [_as_path(g) for g in gens]
    if paths and D < max(p.degree for p in paths):
        raise ValueError("degree bound smaller than a generator degree")
    n = G.n
    fixed_by_degree: dict[int, set] = {d: set() for d in range(D + 1)}
    for p in fixed_paths_up_to(G, D):
        fixed_by_degree[p.degree].add((p.start, p.m, p.k))
    reachable: dict[int, set] = {0: {(v, 0, 0) for v in range(1, n + 1)}}
    for d in range(1, D + 1):
        layer = set()
        for p in paths:
            prev = d - p.degree
            if prev < 0:
                continue
            for (s, m, k) in reachable[prev]:
                if (s - 1 + m - k) % n + 1 == p.start:
                    layer.add((s, m + p.m, k + p.k))
        reachable[d] = layer
        if layer != fixed_by_degree[d]:
            return False, d
    return True, None


# ---------------------------------------------------------------------------
# presentations and rewriting

@dataclass
class Presentation:
    """Generators-and-binomial-relations data for a fixed ring.

    Relations are rewrite rules (lhs, rhs) over generator labels; both sides
    compose to the same underlying path, and lhs is the leading side under
    degree-lex in the generator order.
    """

    n: int
    generators: list  # of (label, SimplePath)
    relations: list  # of (tuple[str, ...], tuple[str, ...])
    order: list = field(default_factory=list)  # labels, ascending

    def __post_init__(self):
        if not self.order:
            self.order = [label for label, _ in self.generators]
        self.paths = dict(self.generators)
        missing = [l for l in self.order if l not in self.paths]
        if missing:
            raise ValueError("order mentions unknown labels %s" % missing)
        self.rank = {label: i for i, label in enumerate(self.order)}
        for lhs, rhs in self.relations:
            pl, pr = self.word_path(lhs), self.word_path(rhs)
            if pl is None or pr is None or pl != pr:
                raise ValueError(
                    "relation sides %s and %s are not paths of the same type"
                    % ("*".join(lhs), "*".join(rhs))
                )

    def word_path(self, word) -> SimplePath | None:
        """Compose the generator paths spelled by the word, if composable."""
        if not word:
            return None
        path = self.paths[word[0]]
        for label in word[1:]:
            path = path.compose(self.paths[label])
            if path is None:
                return None
        return path

    def word_degree(self, word) -> int:
        return sum(self.paths[label].degree for label in word)

    def word_key(self, word):
        return (self.word_degree(word), tuple(self.rank[l] for l in word))


class RewriteLimitError(RuntimeError):
    """Rewriting did not reach a normal form within the step cap."""


def _reduce_word(word, rules, cap: int = 10000):
    """Leftmost-first exhaustive rewriting to a normal form."""
    word = tuple(word)
    steps = 0
    changed = True
    while changed:
        changed = False
        for pos in range(len(word)):
            for lhs, rhs in rules:
                if word[pos:pos + len(lhs)] == lhs:
                    word = word[:pos] + rhs + word[pos + len(lhs):]
                    steps += 1
                    if steps > cap:
                        raise RewriteLimitError(
                            "no normal form within %d steps" % cap
                        )
                    changed = True
                    break
            if changed:
                break
    return word


def discover_relations(G: AutGroup, gens, D: int | None = None) -> Presentation:
    """Find binomial rewrite rules among generator words up to degree D.

    Words are enumerated by ascending degree and bucketed by the underlying
    path; whenever a bucket still contains several distinct normal forms
    under the rules found so far, the extras are rewritten to the smallest.
    """
    gens = list(gens)
    labeled = []
    for i, g in enumerate(gens):
        path = _as_path(g)
        label = g.label if isinstance(g, FixedGenerator) and g.label else "g%d" % (i + 1)
        labeled.append((label, path))
    labeled.sort(key=lambda lp: default_generator_order(lp[1]))
    if D is None:
        D = 2 * max(p.degree for _, p in labeled)
    pres = Presentation(G.n, labeled, [])
    # words[d] holds (labels, start, end) for every composable word of degree d
    words = {0: [((), v, v) for v in range(1, G.n + 1)]}
    rules: list = []
    for d in range(1, D + 1):
        layer = []
        for label, path in labeled:
            prev = d - path.degree
            if prev < 0:
                continue
            for w, s, e in words[prev]:
                if e == path.start:
                    layer.append((w + (label,), s, path.end))
        words[d] = layer
        buckets: dict = {}
        for w, s, e in layer:
            p = pres.word_path(w)
            buckets.setdefault((p.start, p.m, p.k), []).append(w)
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            normal = sorted({_reduce_word(w, rules) for w in bucket}, key=pres.word_key)
            for w in normal[1:]:
                rules.append((w, normal[0]))
    return Presentation(G.n, labeled, rules)


@dataclass
class AmbiguityReport:
    resolvable: list  # of (word, normal form)
    unresolvable: list  # of (word, form via first rule, form via second rule)

    @property
    def all_resolvable(self) -> bool:
        return not self.unresolvable


def check_ambiguities(pres: Presentation, D: int | None = None) -> AmbiguityReport:
    """Resolve all overlap and inclusion ambiguities among leading terms.

    Each ambiguity word is rewritten starting with either of the two rules
    involved; the system is confluent on it if both routes agree.
    """
    rules = [(tuple(l), tuple(r)) for l, r in pres.relations]
    resolvable, unresolvable = [], []

    def check(word, first, second, pos2):
        a = _reduce_word(first[1] + word[len(first[0]):], rules)
        b = _reduce_word(word[:pos2] + second[1] + word[pos2 + len(second[0]):], rules)
        if a == b:
            resolvable.append((word, a))
        else:
            unresolvable.append((word, a, b))

    for r1 in rules:
        for r2 in rules:
            l1, l2 = r1[0], r2[0]
            # overlap: proper suffix of l1 equals proper prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    word = l1 + l2[k:]
                    if D is None or pres.word_degree(word) <= D:
                        check(word, r1, r2, len(l1) - k)
            # inclusion: l2 a proper factor of l1
            if r1 is not r2 and len(l2) < len(l1):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos:pos + len(l2)] == l2:
                        check(l1, r1, r2, pos)
    return AmbiguityReport(resolvable, unresolvable)


# ---------------------------------------------------------------------------
# word counting

def count_irreducible_words(pres: Presentation):
    """Graded counts of words with no leading term as a factor.

    Builds the factor-avoidance automaton (vertex plus the longest suffix
    that is a proper prefix of a forbidden word) and reads the generating
    functions off (I - T(t))^{-1} for the weighted transfer matrix T.
    Returns (matrix, vector, total); matrix[i][j] counts words from vertex
    i+1 to vertex j+1, including the empty word on the diagonal.
    """
    n = pres.n
    forbidden = [tuple(lhs) for lhs, _ in pres.relations]
    prefixes = set()
    for w in forbidden:
        for k in range(1, len(w)):
            prefixes.add(w[:k])
    # state: ((), vertex) for the bare vertices, or a nonempty prefix
    states = [((), v) for v in range(1, n + 1)]
    for p in sorted(prefixes, key=lambda w: (len(w), w)):
        states.append((p, pres.word_path(p).end))
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    zero = RatFun.constant(0)
    T = [[zero] * size for _ in range(size)]
    for (suffix, v) in states:
        row = index[(suffix, v)]
        for label, path in pres.generators:
            if path.start != v:
                continue
            stream = suffix + (label,)
            if any(stream[-len(w):] == w for w in forbidden if len(w) <= len(stream)):
                continue
            nxt = ()
            for k in range(min(len(stream), max(map(len, forbidden), default=1)), 0, -1):
                if stream[-k:] in prefixes:
                    nxt = stream[-k:]
                    break
            col = index[(nxt, path.end)]
            T[row][col] = T[row][col] + RatFun(Poly.t_power(path.degree))
    counts = mat_inverse(RatMatrix([
        [(RatFun.constant(1) if i == j else zero) - T[i][j] for j in range(size)]
        for i in range(size)
    ]))
    matrix = RatMatrix([
        [
            sum(
                (counts[index[((), i)], s] for s, (suf, v) in enumerate(states) if v == j),
                zero,
            )
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ])
    vector = matrix.row_sums()
    total = sum(vector, zero)
    return matrix, vector, total


@dataclass
class PresentationVerification:
    ok: bool
    matrix_ok: bool
    vector_ok: bool
    total_ok: bool
    ambiguities: AmbiguityReport


def verify_presentation(pres: Presentation, G: AutGroup, D: int | None = None) -> PresentationVerification:
    """Compare irreducible-word counts with the averaged trace series."""
    amb = check_ambiguities(pres)
    if not amb.all_resolvable:
        return PresentationVerification(False, False, False, False, amb)
    matrix, vector, total = count_irreducible_words(pres)
    mol = molien_report(G, D)
    total_ok = total == mol.scalar
    vector_ok = vector == mol.vector
    matrix_ok = matrix == mol.matrix.matrix
    return PresentationVerification(
        total_ok and vector_ok and matrix_ok, matrix_ok, vector_ok, total_ok, amb
    )


# ---------------------------------------------------------------------------
# projectivity diagnostics

def _nonneg_integer_poly(f: RatFun) -> Poly | None:
    """The numerator as a polynomial with coefficients in 0, 1, 2, ..."""
    if not f.is_polynomial():
        return None
    p = f.as_polynomial()
    for c in p.coeffs:
        if not c.is_rational():
            return None
        q = c.as_rational()
        if q.denominator != 1 or q < 0:
            return None
    return p


@dataclass
class DiagnosisReport:
    P: RatMatrix | None
    freeness_cofactor: Poly | str
    verdict: str
    notes: list


def diagnose_projectivity(G: AutGroup, D: int | None = None) -> DiagnosisReport:
    """Can A be free, or at least projective, over A^G by Hilbert-series data?

    Solves H_{e_iA} = sum_j P_ij H_{e_jA^G} for the unique candidate matrix
    P of graded multiplicities.  Nonnegative-integer polynomial entries are
    consistent with projectivity; a cofactor with H_A = cofactor * H_{A^G}
    is additionally consistent with freeness.  A failed entry is decisive at
    the level of Hilbert series: no projective decomposition can exist.
    """
    notes = []
    mol = molien_report(G, D)
    try:
        inv = mat_inverse(mol.matrix.matrix)
    except SingularMatrixError:
        return DiagnosisReport(
            None, "none", "Inconclusive", ["matrix Hilbert series is singular"]
        )
    n = G.n
    P = matrix_hilbert_A(n) * inv
    check = [
        sum((P[i, j] * mol.vector[j] for j in range(n)), RatFun.constant(0))
        for i in range(n)
    ]
    if check != [hilbert_eA(n)] * n:
        raise ArithmeticError("decomposition identity failed")
    entries = [[_nonneg_integer_poly(P[i, j]) for j in range(n)] for i in range(n)]
    projective_ok = all(e is not None for row in entries for e in row)
    cofactor = _nonneg_integer_poly(hilbert_A(n) / mol.scalar)
    if projective_ok and cofactor is not None:
        verdict = "FreeConsistent"
        notes.append("H_A = (%s) * H_fixed and all multiplicities are admissible" % cofactor)
    elif projective_ok:
        verdict = "ProjectiveNotFreeConsistent"
        notes.append("multiplicity matrix is admissible but H_A / H_fixed is not")
    else:
        verdict = "NotProjective"
        bad = [
            (i + 1, j + 1)
            for i in range(n)
            for j in range(n)
            if entries[i][j] is None
        ]
        notes.append("inadmissible multiplicity entries at %s" % bad)
    return DiagnosisReport(
        P=P,
        freeness_cofactor=cofactor if cofactor is not None else "none",
        verdict=verdict,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# serialization

def presentation_to_json(pres: Presentation) -> dict:
    return {
        "vertices": pres.n,
        "generators": [
            {
                "label": label,
                "start": path.start,
                "end": path.end,
                "degree": path.degree,
                "nonstar": path.m,
                "star": path.k,
            }
            for label, path in pres.generators
        ],
        "relations": [
            {"lhs": list(lhs), "rhs": list(rhs)} for lhs, rhs in pres.relations
        ],
        "order": list(pres.order),
    }


def presentation_from_json(data: dict) -> Presentation:
    n = data["vertices"]
    generators = []
    for g in data["generators"]:
        path = SimplePath(n, g["start"], g["nonstar"], g["star"])
        if path.degree != g["degree"] or path.end != g["end"]:
            raise ValueError("inconsistent generator record for %r" % g["label"])
        generators.append((g["label"], path))
    relations = [(tuple(r["lhs"]), tuple(r["rhs"])) for r in data["relations"]]
    return Presentation(n, generators, relations, list(data.get("order", [])))
