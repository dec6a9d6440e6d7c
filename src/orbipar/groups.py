"""Finite groups as explicit multiplication tables.

Elements are 0..order-1 with 0 the identity.  table[a][b] is the product ab.
Associativity is checked exactly by Light's test: (x a) y = x (a y) for
every generator a and all x, y.  The elements a for which that holds for all
x, y are closed under products, since (x(ab))y = ((xa)b)y = (xa)(by) =
x(a(by)) = x((ab)y); the generators' products reach every element, so the
table is associative.  That costs |generators| * order^2 lookups.
"""

from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from .errors import ConfigurationError, OrbiparError


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple
    inverse: tuple = dc_field(default=None)
    _generators: list = dc_field(default_factory=list, init=False, compare=False,
                                 hash=False, repr=False)

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ConfigurationError("multiplication table has wrong shape")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise ConfigurationError("element 0 must be the identity")
        if self.inverse is None:
            inv = [None] * n
            for a in range(n):
                for b in range(n):
                    if self.table[a][b] == 0 and self.table[b][a] == 0:
                        inv[a] = b
                        break
                if inv[a] is None:
                    raise ConfigurationError(f"element {a} has no inverse")
            object.__setattr__(self, "inverse", tuple(inv))
        else:
            for a in range(n):
                if self.table[a][self.inverse[a]] != 0:
                    raise ConfigurationError("inverse table inconsistent")
        t = self.table
        for a in self.generators():
            times_a = itemgetter(*t[a])     # row x -> (x (a y) for every y)
            for x in range(n):
                if t[t[x][a]] != times_a(t[x]):
                    y = next(y for y in range(n) if t[t[x][a]][y] != t[x][t[a][y]])
                    raise ConfigurationError(f"table not associative at ({x},{a},{y})")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, a):
        """g a g^{-1}."""
        return self.mul(self.mul(g, a), self.inv(g))

    def element_order(self, a):
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def generators(self):
        """Deterministic small generating set (greedy over element indices);
        computed on the first call and cached on the group."""
        if not self._generators and self.order > 1:
            self._generators.extend(self._greedy_generators())
        return list(self._generators)

    def _greedy_generators(self):
        gens = []
        closure = {0}
        for a in range(1, self.order):
            if a in closure:
                continue
            gens.append(a)
            closure.add(a)
            changed = True
            while changed:
                changed = False
                for x in list(closure):
                    for y in list(closure):
                        z = self.mul(x, y)
                        if z not in closure:
                            closure.add(z)
                            changed = True
            if len(closure) == self.order:
                break
        return gens

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True)
class Report:
    """The outcome of a check: ok, a message, and what a failure found
    (the failing pair, element or mismatch), or None."""
    ok: bool
    message: str
    detail: object = None


def law_by_generators(group, check, premise=lambda: True):
    """The report of a group law, proven on the generators where it holds.

    check(hs) scans the law at the elements hs and returns a Report.  A
    binary law L(h, g) is scanned for h in hs and every g; each such law
    composes: L(h1, h2 g), L(h1, h2) and L(h2, g) give L(h1 h2, g).  A unary
    law L(g) is scanned for g in hs; it composes under the caller's premise,
    premise() (a cocycle or action law already verified): L(h) and L(g)
    give L(hg).  In a finite group every element, e included, is a positive
    word in the generators, so the law on the generators proves it
    everywhere, by induction on the length of the word.  The order-1 group
    has no generators, so there e is checked directly.  If the premise
    fails, or the generator scan fails, or either raises an orbipar error,
    the exhaustive scan check(range(order)) runs instead, so a failure
    reports the same first failing element, message and detail as the
    exhaustive scan.
    """
    try:
        if premise():
            rep = check(group.generators() or [0])
            if rep.ok:
                return rep
    except OrbiparError:
        pass
    return check(range(group.order))


def cyclic(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(order=n, table=table)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element r^a f^b encoded as a + n*b."""
    order = 2 * n

    def mul(x, y):
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        # (r^a1 f^b1)(r^a2 f^b2) = r^(a1 + (-1)^b1 a2) f^(b1+b2)
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return a + n * ((b1 + b2) % 2)

    table = tuple(tuple(mul(x, y) for y in range(order)) for x in range(order))
    return FiniteGroup(order=order, table=table)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """g1 x g2; element (a, b) encoded as a + g1.order * b."""
    n1, n2 = g1.order, g2.order

    def mul(x, y):
        a1, b1 = x % n1, x // n1
        a2, b2 = y % n1, y // n1
        return g1.mul(a1, a2) + n1 * g2.mul(b1, b2)

    table = tuple(tuple(mul(x, y) for y in range(n1 * n2)) for x in range(n1 * n2))
    return FiniteGroup(order=n1 * n2, table=table)


def from_table(table) -> FiniteGroup:
    return FiniteGroup(order=len(table), table=tuple(tuple(r) for r in table))


def group_from_config(cfg) -> FiniteGroup:
    """Build a group from a scenario-file description, whose integers
    scenario._group has checked first."""
    kind = cfg.get("kind")
    if kind == "cyclic":
        return cyclic(cfg["n"])
    if kind == "dihedral":
        return dihedral(cfg["n"])
    if kind == "product":
        return direct_product(group_from_config(cfg["left"]), group_from_config(cfg["right"]))
    if kind == "table":
        return from_table(cfg["table"])
    raise ConfigurationError(f"unknown group kind {kind!r}")
