"""Independent reference checker for the benchmark's correctness gates.

Everything here is written from the definitions over *ordered* tuples: a
structure is a pair of total maps on R^m and R^n, and every axiom quantifies
over ordered tuples and over every argument position.  Nothing is imported
from the workbench, so a bug shared by a scan and its replay cannot hide
here.  It covers the Krasner axioms, the hyperideal test, the Jacobson
radical, the J-hyperideal condition, isomorphism under relabelings that fix
zero, and a brute-force count of small structure shapes.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations, product


class Table:
    """Carrier {0..size-1}, hyperaddition ``f`` and multiplication ``g`` as
    dicts keyed by every ordered argument tuple."""

    def __init__(self, size, m, n, zero, f, g):
        self.size, self.m, self.n, self.zero = size, m, n, zero
        self.f, self.g = f, g
        self.carrier = range(size)

    @classmethod
    def from_text(cls, text: str) -> "Table":
        """Read a .kmn document; each entry defines f or g on every
        reordering of its arguments (the file lists one per multiset)."""
        doc = json.loads(text)
        index = {label: i for i, label in enumerate(doc["elements"])}
        f, g = {}, {}
        for entry in doc["f"]:
            value = frozenset(index[v] for v in entry["value"])
            for args in permutations([index[a] for a in entry["args"]]):
                if f.setdefault(args, value) != value:
                    raise ValueError(f"conflicting f entries at {args}")
        for entry in doc["g"]:
            value = index[entry["value"]]
            for args in permutations([index[a] for a in entry["args"]]):
                if g.setdefault(args, value) != value:
                    raise ValueError(f"conflicting g entries at {args}")
        size = len(index)
        table = cls(size, doc["m"], doc["n"], index[doc["zero"]], f, g)
        if set(f) != set(product(table.carrier, repeat=table.m)) or set(g) != set(
            product(table.carrier, repeat=table.n)
        ):
            raise ValueError("table is not total")
        return table

    @classmethod
    def from_structure(cls, S) -> "Table":
        """Read a workbench structure through its public evaluation methods."""
        carrier = range(S.size)
        f = {t: frozenset(S.hyperadd(t)) for t in product(carrier, repeat=S.m)}
        g = {t: S.multiply(t) for t in product(carrier, repeat=S.n)}
        return cls(S.size, S.m, S.n, S.zero, f, g)

    def fset(self, sets) -> frozenset:
        """f extended to argument sets."""
        out = set()
        for t in product(*sets):
            out |= self.f[t]
        return frozenset(out)


def _positions(t, i, x):
    return t[:i] + (x,) + t[i:]


# -- Krasner axioms --------------------------------------------------------


def neutrals(T: Table) -> list:
    """Scalar neutrals: f(e, .., e, x) = {x} with x in any position."""
    return [
        e
        for e in T.carrier
        if all(
            T.f[_positions((e,) * (T.m - 1), i, x)] == {x}
            for x in T.carrier
            for i in range(T.m)
        )
    ]


def inverses(T: Table) -> dict:
    """x -> the y with zero in f(x, y, 0, .., 0), for x with exactly one."""
    pad = (T.zero,) * (T.m - 2)
    out = {}
    for x in T.carrier:
        ys = [y for y in T.carrier if T.zero in T.f[(x, y) + pad]]
        if len(ys) == 1:
            out[x] = ys[0]
    return out


def failed_axiom(T: Table):
    """Name of the first Krasner axiom the table violates, or None."""
    R, m, n = T.carrier, T.m, T.n
    for t in product(R, repeat=m):
        if any(T.f[p] != T.f[t] for p in permutations(t)):
            return "add-commutativity"
    for t in product(R, repeat=n):
        if any(T.g[p] != T.g[t] for p in permutations(t)):
            return "mul-commutativity"
    if neutrals(T) != [T.zero]:
        return "add-neutral"
    inv = inverses(T)
    if len(inv) != T.size:
        return "add-inverses"
    # x in f(a_1..a_m) forces a_i in f(-a_1, .., x, .., -a_m)
    for a in product(R, repeat=m):
        for x in T.f[a]:
            for i in range(m):
                back = tuple(x if j == i else inv[a[j]] for j in range(m))
                if a[i] not in T.f[back]:
                    return "add-reversibility"
    for rest in product(R, repeat=m - 1):
        for b in R:
            for i in range(m):
                if not any(b in T.f[_positions(rest, i, t)] for t in R):
                    return "add-solvability"
    for t in product(R, repeat=2 * m - 1):
        values = {
            T.fset([{v} for v in t[:i]] + [T.f[t[i : i + m]]] + [{v} for v in t[i + m :]])
            for i in range(m)
        }
        if len(values) != 1:
            return "add-associativity"
    for t in product(R, repeat=2 * n - 1):
        if len({T.g[t[:i] + (T.g[t[i : i + n]],) + t[i + n :]] for i in range(n)}) != 1:
            return "mul-associativity"
    for rest in product(R, repeat=n - 1):
        for i in range(n):
            if T.g[_positions(rest, i, T.zero)] != T.zero:
                return "zero-absorbing"
    for a in product(R, repeat=n - 1):
        for xs in product(R, repeat=m):
            for i in range(n):
                lhs = frozenset(T.g[_positions(a, i, s)] for s in T.f[xs])
                rhs = T.f[tuple(T.g[_positions(a, i, x)] for x in xs)]
                if lhs != rhs:
                    return "distributivity"
    return None


def is_krasner(T: Table) -> bool:
    return failed_axiom(T) is None


def identity(T: Table):
    """The unique scalar identity of g (g(e, .., e, x) = x in any position)."""
    ones = [
        e
        for e in T.carrier
        if all(
            T.g[_positions((e,) * (T.n - 1), i, x)] == x
            for x in T.carrier
            for i in range(T.n)
        )
    ]
    return ones[0] if len(ones) == 1 else None


# -- hyperideals -----------------------------------------------------------


def is_hyperideal(T: Table, members) -> bool:
    """Zero membership, closure under f, absorption of g in every slot,
    and solvability of b in f(rest, t) with everything inside the subset."""
    I = frozenset(members)
    if T.zero not in I:
        return False
    if any(not T.f[t] <= I for t in product(I, repeat=T.m)):
        return False
    for rest in product(T.carrier, repeat=T.n - 1):
        for i in range(T.n):
            if any(T.g[_positions(rest, i, x)] not in I for x in I):
                return False
    for rest in product(I, repeat=T.m - 1):
        for b in I:
            for i in range(T.m):
                if not any(b in T.f[_positions(rest, i, t)] for t in I):
                    return False
    return True


def hyperideals(T: Table) -> list:
    """Every hyperideal, sorted by (size, members)."""
    found = [
        frozenset(c)
        for r in range(1, T.size + 1)
        for c in combinations(T.carrier, r)
        if is_hyperideal(T, c)
    ]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def maximal(T: Table, ideals) -> list:
    proper = [I for I in ideals if len(I) < T.size]
    return [I for I in proper if not any(I < J for J in proper)]


def jacobson(T: Table, ideals) -> frozenset:
    """Intersection of the maximal hyperideals; the carrier if there are none."""
    out = frozenset(T.carrier)
    for M in maximal(T, ideals):
        out &= M
    return out


def j_verdict(T: Table, Q, ideals) -> str:
    """J-hyperideal condition for a proper hyperideal Q: whenever
    g(x_1..x_n) lies in Q and some x_i lies outside J(R), the product with
    x_i replaced by the identity lies in Q.  Needs a scalar identity."""
    one = identity(T)
    if one is None:
        return "not_applicable"
    Q = frozenset(Q)
    jac = jacobson(T, ideals)
    for t in product(T.carrier, repeat=T.n):
        if T.g[t] not in Q:
            continue
        for i, x in enumerate(t):
            if x not in jac and T.g[t[:i] + (one,) + t[i + 1 :]] not in Q:
                return "false"
    return "true"


# -- isomorphism -----------------------------------------------------------


def certificate(T: Table):
    """Least relabeled table over the bijections onto {0..size-1} that send
    zero to 0: two structures are isomorphic under a zero-fixing relabeling
    exactly when their certificates are equal."""
    others = [x for x in T.carrier if x != T.zero]
    best = None
    for images in permutations(range(1, T.size)):
        p = {T.zero: 0, **dict(zip(others, images))}
        inv = {v: k for k, v in p.items()}
        f = tuple(
            tuple(sorted(p[v] for v in T.f[tuple(inv[x] for x in t)]))
            for t in product(range(T.size), repeat=T.m)
        )
        g = tuple(
            p[T.g[tuple(inv[x] for x in t)]] for t in product(range(T.size), repeat=T.n)
        )
        key = (T.m, T.n, T.size, f, g)
        if best is None or key < best:
            best = key
    return best


# -- brute-force enumeration -----------------------------------------------


def _symmetric_tables(order, arity, values, fixed):
    """Every commutative table on R^arity with the given fixed ordered-tuple
    values, the rest ranging over ``values`` (one choice per multiset)."""
    free = sorted(
        {tuple(sorted(t)) for t in product(range(order), repeat=arity)} - set(fixed)
    )
    orbits = {k: set(permutations(k)) for k in free}
    base = {}
    for k, v in fixed.items():
        for p in permutations(k):
            base[p] = v
    for choice in product(values, repeat=len(free)):
        table = dict(base)
        for k, v in zip(free, choice):
            for p in orbits[k]:
                table[p] = v
        yield table


def brute_force_count(m: int, n: int, order: int) -> int:
    """Isomorphism classes of Krasner (m,n)-hyperrings of the given order.

    Zero is element 0; f(0, .., 0, x) = {x} and g(0, ..) = 0 are fixed
    because every structure satisfies them, all other entries range freely.
    """
    R = range(order)
    subsets = [frozenset(c) for r in range(1, order + 1) for c in combinations(R, r)]
    add_fixed = {(0,) * (m - 1) + (x,): frozenset({x}) for x in R}
    mul_fixed = {k: 0 for k in {tuple(sorted(t)) for t in product(R, repeat=n)} if 0 in k}
    dummy_g = {t: 0 for t in product(R, repeat=n)}
    hypergroups = []
    for f in _symmetric_tables(order, m, subsets, add_fixed):
        # multiplication-free axioms first: the zero product passes them all
        if failed_axiom(Table(order, m, n, 0, f, dummy_g)) is None:
            hypergroups.append(f)
    muls = list(_symmetric_tables(order, n, list(R), mul_fixed))
    seen = set()
    for f in hypergroups:
        for g in muls:
            T = Table(order, m, n, 0, f, g)
            if failed_axiom(T) is None:
                seen.add(certificate(T))
    return len(seen)
