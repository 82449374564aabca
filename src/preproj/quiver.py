"""Cycle quivers, their preprojective path basis, and diagonal automorphisms.

The quiver has vertices 1..n on a cycle, arrows a_i : i -> i+1 (indices mod n)
and reverse arrows a_i* : i+1 -> i.  In the preprojective algebra every path
is equivalent to a unique "simple" normal form: first m forward arrows, then
k reverse arrows.  The component of degree d starting at a vertex therefore
has dimension d + 1 (one basis path for each split d = m + k).

A diagonal automorphism scales a_i by c_i and a_i* by t_i; it respects the
preprojective relations exactly when c_i * t_i is the same for every i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .cyclotomic import CycNum, order_as_root_of_unity
from .parsing import parse_scalar


class AutomorphismError(ValueError):
    """Scalars that do not define a graded automorphism."""


class GroupBoundError(RuntimeError):
    """Group generation exceeded the configured element cap."""


@dataclass(frozen=True)
class CycleQuiver:
    """The cycle quiver on vertices 1..n (arrows i -> i+1, plus reverses)."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("cycle quiver needs at least 3 vertices, got %d" % self.n)

    def vertices(self) -> range:
        return range(1, self.n + 1)


def make_cycle_quiver(n: int) -> CycleQuiver:
    return CycleQuiver(n)


@dataclass(frozen=True)
class SimplePath:
    """Normal-form path: m forward arrows then k reverse arrows from start."""

    n: int
    start: int
    m: int
    k: int

    def __post_init__(self):
        if not (1 <= self.start <= self.n):
            raise ValueError("start vertex %d out of range 1..%d" % (self.start, self.n))
        if self.m < 0 or self.k < 0:
            raise ValueError("arrow counts must be nonnegative")

    @property
    def degree(self) -> int:
        return self.m + self.k

    @property
    def end(self) -> int:
        return (self.start - 1 + self.m - self.k) % self.n + 1

    def compose(self, other: "SimplePath"):
        """Normal form of self followed by other, or None if ends mismatch."""
        if self.n != other.n or self.end != other.start:
            return None
        return SimplePath(self.n, self.start, self.m + other.m, self.k + other.k)

    def __str__(self):
        if self.degree == 0:
            return "e_%d" % self.start
        parts = []
        for j in range(self.m):
            parts.append("a_%d" % ((self.start - 1 + j) % self.n + 1))
        v = self.start + self.m
        for j in range(1, self.k + 1):
            parts.append("a_%d*" % ((v - 1 - j) % self.n + 1))
        return "".join(parts)


def graded_basis(quiver, i: int, j, s: int) -> list[SimplePath]:
    """Normal-form paths of degree s from vertex i (to vertex j, or any).

    For j="any" this is the full s+1 element basis of (e_i A)_s.
    """
    n = quiver.n if isinstance(quiver, CycleQuiver) else int(quiver)
    if s < 0:
        raise ValueError("degree must be nonnegative")
    paths = [SimplePath(n, i, m, s - m) for m in range(s + 1)]
    if j == "any":
        return paths
    return [p for p in paths if p.end == j]


class DiagonalAut:
    """Graded automorphism a_i -> c_i a_i, a_i* -> t_i a_i*."""

    __slots__ = ("n", "c", "t")

    def __init__(self, c, t):
        c = tuple(_scalar(x) for x in c)
        t = tuple(_scalar(x) for x in t)
        if len(c) != len(t) or len(c) < 3:
            raise AutomorphismError(
                "need matching scalar tuples of length >= 3, got %d and %d"
                % (len(c), len(t))
            )
        for x in c + t:
            if x.is_zero():
                raise AutomorphismError("automorphism scalars must be nonzero")
        prod0 = c[0] * t[0]
        for i in range(1, len(c)):
            if c[i] * t[i] != prod0:
                raise AutomorphismError(
                    "preprojective relation not preserved: c_%d*t_%d != c_1*t_1"
                    % (i + 1, i + 1)
                )
        self.n = len(c)
        self.c = c
        self.t = t

    @staticmethod
    def identity(n: int) -> "DiagonalAut":
        one = CycNum.one()
        return DiagonalAut((one,) * n, (one,) * n)

    def is_identity(self) -> bool:
        return all(x.is_one() for x in self.c) and all(x.is_one() for x in self.t)

    def compose(self, other: "DiagonalAut") -> "DiagonalAut":
        if self.n != other.n:
            raise AutomorphismError("cannot compose automorphisms of different quivers")
        return DiagonalAut(
            tuple(a * b for a, b in zip(self.c, other.c)),
            tuple(a * b for a, b in zip(self.t, other.t)),
        )

    def inverse(self) -> "DiagonalAut":
        return DiagonalAut(
            tuple(x.inverse() for x in self.c),
            tuple(x.inverse() for x in self.t),
        )

    def __pow__(self, e: int) -> "DiagonalAut":
        if e < 0:
            return self.inverse() ** (-e)
        result = DiagonalAut.identity(self.n)
        base = self
        while e:
            if e & 1:
                result = result.compose(base)
            base = base.compose(base)
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, DiagonalAut)
            and self.n == other.n
            and self.c == other.c
            and self.t == other.t
        )

    def order(self) -> int:
        """Order as a group element; raises if some scalar has infinite order."""
        orders = []
        for label, scalars in (("c", self.c), ("t", self.t)):
            for i, x in enumerate(scalars):
                o = order_as_root_of_unity(x)
                if o is None:
                    raise AutomorphismError(
                        "%s_%d is not a root of unity; the automorphism has "
                        "infinite order" % (label, i + 1)
                    )
                orders.append(o)
        return reduce(lambda a, b: a * b // gcd(a, b), orders, 1)

    def path_eigenvalue(self, path: SimplePath) -> CycNum:
        """Scalar by which the automorphism multiplies a normal-form path."""
        if path.n != self.n:
            raise ValueError("path lives on a different quiver")
        acc = CycNum.one()
        for j in range(path.m):
            acc = acc * self.c[(path.start - 1 + j) % self.n]
        v = path.start + path.m
        for j in range(1, path.k + 1):
            acc = acc * self.t[(v - 1 - j) % self.n]
        return acc

    def __repr__(self):
        return "DiagonalAut(c=%s, t=%s)" % (
            [str(x) for x in self.c],
            [str(x) for x in self.t],
        )


def _scalar(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return CycNum.from_rational(x)


def make_aut(quiver, c, t) -> DiagonalAut:
    """Build a diagonal automorphism from scalars or scalar expressions."""
    n = quiver.n if isinstance(quiver, CycleQuiver) else int(quiver)
    c, t = tuple(c), tuple(t)
    if len(c) != n or len(t) != n:
        raise AutomorphismError(
            "expected %d scalars per arrow family, got %d and %d" % (n, len(c), len(t))
        )
    return DiagonalAut(c, t)


def aut_order(g: DiagonalAut) -> int:
    return g.order()


def path_eigenvalue(g: DiagonalAut, path: SimplePath) -> CycNum:
    return g.path_eigenvalue(path)


def _conductor_lcm(auts) -> int:
    m = 1
    for g in auts:
        for x in g.c + g.t:
            m = m * x.conductor // gcd(m, x.conductor)
    return m


def _aut_key(g: DiagonalAut, conductor: int):
    lifted = [x.lift(conductor) for x in g.c + g.t]
    return tuple((x.nums, x.den) for x in lifted)


@dataclass(frozen=True)
class AutGroup:
    """A finite group of diagonal automorphisms, identity first."""

    n: int
    generators: tuple
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @staticmethod
    def trivial(n: int) -> "AutGroup":
        identity = DiagonalAut.identity(n)
        return AutGroup(n, (identity,), (identity,))

    def exponent(self) -> int:
        e = 1
        for g in self.elements:
            o = g.order()
            e = e * o // gcd(e, o)
        return e


def generate_group(generators, cap: int = 10000) -> AutGroup:
    """Close a list of automorphisms under composition.

    Returns the full finite group (identity first).  Raises GroupBoundError
    if more than ``cap`` distinct elements appear.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise AutomorphismError("generators act on different quivers")
        g.order()  # raises on infinite order before we loop forever
    conductor = _conductor_lcm(generators)
    identity = DiagonalAut.identity(n)
    seen = {_aut_key(identity, conductor): identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                gh = g.compose(h)
                key = _aut_key(gh, conductor)
                if key not in seen:
                    if len(seen) >= cap:
                        raise GroupBoundError(
                            "group has more than %d elements" % cap
                        )
                    seen[key] = gh
                    new.append(gh)
        frontier = new
    elements = list(seen.values())
    elements.sort(key=lambda g: 0 if g.is_identity() else 1)
    return AutGroup(n, tuple(generators), tuple(elements))
