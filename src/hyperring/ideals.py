"""Hyperideal lattice and the classical predicates over a finite structure.

Everything here is exhaustive set arithmetic on small carriers: hyperideal
recognition with witnesses, lattice enumeration (a subset scan up to
``SCAN_LIMIT`` elements, a closure search above), generated ideals, maximal
ideals and the Jacobson radical, primality in both element and subset form,
the two radical definitions, primariness, residuals and locality.

Each hyperideal clause, the prime clause and the J-family drop clause is
one ``core.Clause``, shared by its scan and its replay.  The hyperideal test
itself decides on subset bitmasks (``_ideal_masks``); its clauses run only to
name the first violation of a subset that fails.

Every call checks its arguments first, with ``FiniteStructure.subset``,
``.proper_subset`` (the prime and primary tests) and ``.require_one``; the
README's "Errors" lists what each raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import Iterable, Optional

from .core import (
    BITS,
    SETS,
    Clause,
    FiniteStructure,
    Meter,
    count_multisets,
    mask_of,
    msort,
    multisets,
    solvability_violation,
)

# Raw subset scans are 2^(size-1); beyond this the closure search takes over.
SCAN_LIMIT = 12


@dataclass(frozen=True)
class Hyperideal:
    parent: FiniteStructure
    members: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", self.parent.subset(self.members))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hyperideal)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash(self.members)

    @property
    def proper(self) -> bool:
        return len(self.members) < self.parent.size

    def labels(self) -> tuple[str, ...]:
        return self.parent.labels_of(self.members)

    def __repr__(self) -> str:
        return f"Hyperideal({{{','.join(self.labels())}}} of {self.parent.name})"


@dataclass(frozen=True)
class IdealCheck:
    """Outcome of the hyperideal test: first violated clause plus witness."""

    ok: bool
    clause: Optional[str] = None
    witness: Optional[tuple] = None


def _add_closed(S: FiniteStructure, members: frozenset, key) -> Optional[tuple]:
    for x in BITS[S.add_cells[S.add_shape.rank[key]]]:
        if x not in members:
            return key, x
    return None


def _absorbing(S: FiniteStructure, members: frozenset, rest) -> Optional[tuple]:
    # a product with any factor inside the subset stays inside it
    cells, row = S.mul_cells, S.mul_row(rest)
    for i in sorted(members):
        prod = cells[row[i]]
        if prod not in members:
            return rest, i, prod
    return None


IDEAL_CLAUSES = {
    c.name: c
    for c in (
        Clause("zero", lambda S, M: (S.zero,), lambda S, M, z: None if z in M else (z,)),
        Clause(
            "add-closed", lambda S, M: combinations_with_replacement(sorted(M), S.m), _add_closed
        ),
        Clause("absorbing", lambda S, M: multisets(S.size, S.n - 1), _absorbing),
        Clause(
            "solvability",
            lambda S, M: combinations_with_replacement(sorted(M), S.m - 1),
            solvability_violation,
        ),
    )
}


def _ideal_masks(S: FiniteStructure) -> tuple:
    """(zero, absorb, closed, rows): the hyperideal clauses as bitmask
    tables, built once per structure and kept out of equality, hashing and
    export.

    ``zero`` is the bit of the zero element.  ``absorb[x]`` is the mask of
    every product with x as a factor.  ``closed`` pairs each support mask
    of an m-multiset key with the union of the cells of its keys, when that
    union leaves the support.  ``rows`` pairs the support mask of each
    (m-1)-multiset rest with its row of hyperaddition cells f(rest, t) over
    t.
    """
    masks = vars(S).get("_ideal_masks")
    if masks is None:
        absorb = [0] * S.size
        for row in S.mul_shape.ext:
            for x, r in enumerate(row):
                absorb[x] |= 1 << S.mul_cells[r]
        shape, cells = S.add_shape, S.add_cells
        closed: dict = {}
        for key, cell in zip(shape.keys, cells):
            support = mask_of(key)
            closed[support] = closed.get(support, 0) | cell
        rows = tuple(
            (mask_of(rest), tuple(cells[r] for r in shape.ext[rr]))
            for rest, rr in shape.rest_rank.items()
        )
        masks = vars(S)["_ideal_masks"] = (
            1 << S.zero,
            tuple(absorb),
            tuple((support, value) for support, value in closed.items() if value & ~support),
            rows,
        )
    return masks


def _is_ideal_mask(masks: tuple, M: int) -> bool:
    """The four hyperideal clauses on the subset mask M, as bit tests."""
    zero, absorb, closed, rows = masks
    if not M & zero:
        return False
    members = BITS[M]
    hit = 0
    for x in members:
        hit |= absorb[x]
    if hit & ~M:
        return False
    for support, value in closed:
        if not support & ~M and value & ~M:
            return False
    for support, row in rows:
        if not support & ~M:
            reached = 0
            for t in members:
                reached |= row[t]
            if M & ~reached:
                return False
    return True


def is_hyperideal(S: FiniteStructure, subset: Iterable[int]) -> IdealCheck:
    """Test the hyperideal clauses, reporting the first violation.

    Clause order: zero membership, closure under hyperaddition, absorption
    of multiplication in any slot, and solvability inside the subset.  The
    verdict is read off the mask tables; the clauses are scanned only for a
    subset that fails, to find its first violation and witness.
    """
    members = S.subset(subset)
    if _is_ideal_mask(_ideal_masks(S), mask_of(members)):
        return IdealCheck(True)
    for clause in IDEAL_CLAUSES.values():
        witness = clause.scan(S, members)
        if witness is not None:
            return IdealCheck(False, clause.name, witness)
    return IdealCheck(True)


def replay_ideal_check(S: FiniteStructure, subset: Iterable[int], check: IdealCheck) -> bool:
    """Re-evaluate a failed clause's witness with the clause itself (KeyError
    for an unknown clause name); True means it still violates."""
    if check.ok:
        return False
    return IDEAL_CLAUSES[check.clause].replays(check.witness, S, frozenset(subset))


@dataclass(eq=False)
class IdealLattice:
    """All hyperideals of a structure, sorted by (size, member ids).

    A lattice compares and hashes by identity, so it can key a memo.  Its
    maximal hyperideals, Jacobson radical, primes and standard expansion
    ``registry`` are computed on first read and kept.
    """

    parent: FiniteStructure
    ideals: tuple[Hyperideal, ...]

    def __post_init__(self) -> None:
        self._index = {i.members: i for i in self.ideals}

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self) -> int:
        return len(self.ideals)

    def __contains__(self, members) -> bool:
        """Members as a frozenset, a ``Hyperideal`` or any collection of ids."""
        if not isinstance(members, frozenset):
            members = frozenset(getattr(members, "members", members))
        return members in self._index

    def by_members(self, members) -> Hyperideal:
        if not isinstance(members, frozenset):
            members = frozenset(getattr(members, "members", members))
        return self._index[members]

    def member_or_bare(self, members: frozenset) -> Hyperideal:
        """The member with these members, else a bare ``Hyperideal``: on a
        table that is not a hyperring, a meet or the carrier need not be a
        member of the lattice."""
        if members in self._index:
            return self._index[members]
        return Hyperideal(self.parent, members)

    def proper(self) -> tuple[Hyperideal, ...]:
        return tuple(i for i in self.ideals if i.proper)

    def meet(self, family: Iterable[Hyperideal]) -> frozenset:
        """The intersection of the members of ``family``; the carrier when
        the family is empty."""
        inter = frozenset(self.parent.carrier)
        for i in family:
            inter &= i.members
        return inter

    def radical(self, members: frozenset) -> frozenset:
        """The meet of the primes over ``members``: the radical by the prime
        definition; the carrier when no prime lies over it."""
        return self.meet(p for p in self.primes if members <= p.members)

    @cached_property
    def maximal(self) -> tuple[Hyperideal, ...]:
        prop = self.proper()
        return tuple(
            i
            for i in prop
            if not any(i.members < j.members for j in prop)
        )

    @cached_property
    def jacobson(self) -> Hyperideal:
        """Intersection of the maximal hyperideals; the whole carrier if none."""
        return self.member_or_bare(self.meet(self.maximal))

    @cached_property
    def primes(self) -> tuple[Hyperideal, ...]:
        return tuple(p for p in self.proper() if is_prime(self.parent, p.members))

    @cached_property
    def registry(self) -> dict:
        """``standard_registry`` of this lattice; kept unless it raises."""
        from .classifiers import standard_registry  # classifiers imports ideals

        return standard_registry(self)


def enumerate_hyperideals(S: FiniteStructure) -> IdealLattice:
    """Compute the full hyperideal lattice afresh; ``S.lattice`` keeps one.

    Up to ``SCAN_LIMIT`` elements every subset is tested; above it ideals
    are grown from generator closures (over single-element extensions),
    whose steps count against the work budget.
    """
    found = _enumerate_scan(S) if S.size <= SCAN_LIMIT else _enumerate_closure(S)
    ideals = tuple(
        Hyperideal(S, members)
        for members in sorted(found, key=lambda ms: (len(ms), sorted(ms)))
    )
    return IdealLattice(S, ideals)


def _enumerate_scan(S: FiniteStructure) -> set:
    masks = _ideal_masks(S)
    return {SETS[M] for M in range(1 << S.size) if _is_ideal_mask(masks, M)}


def _close_under_ops(S: FiniteStructure, seed: frozenset, meter: Meter) -> frozenset:
    """Smallest superset closed under hyperaddition, additive inverses and
    multiplication absorption.  On a verified structure this is the
    hyperideal generated by the seed.  Each pass spends one step per table
    cell it reads."""
    add_rank, add_cells, mul_cells = S.add_shape.rank, S.add_cells, S.mul_cells
    cur, rests = set(seed) | {S.zero}, count_multisets(S.size, S.n - 1)
    changed = True
    while changed:
        meter.spend(count_multisets(len(cur), S.m) + len(cur) * (1 + rests))
        changed = False
        for key in combinations_with_replacement(sorted(cur), S.m):
            value = BITS[add_cells[add_rank[key]]]
            if not cur.issuperset(value):
                cur.update(value)
                changed = True
        for x in list(cur):
            inv = S.add_inverse(x)
            if inv is not None and inv not in cur:
                cur.add(inv)
                changed = True
        for rest in multisets(S.size, S.n - 1):
            row = S.mul_row(rest)
            for i in list(cur):
                prod = mul_cells[row[i]]
                if prod not in cur:
                    cur.add(prod)
                    changed = True
    return frozenset(cur)


def _enumerate_closure(S: FiniteStructure) -> set:
    meter = Meter(f"{S.name}: hyperideal closure steps")
    base = _close_under_ops(S, frozenset(), meter)
    found = set()
    queue = [base]
    while queue:
        cur = queue.pop()
        if cur in found:
            continue
        # closure output is re-checked: on unverified structures the closure
        # operations do not guarantee solvability
        if not is_hyperideal(S, cur).ok:
            continue
        found.add(cur)
        for x in S.carrier:
            if x not in cur:
                queue.append(_close_under_ops(S, cur | {x}, meter))
    return found


@dataclass(frozen=True)
class PrincipalIdeal:
    """Generated hyperideal of one element.

    ``formula_set`` is the plain product set {r*x*1*..*1 | r in carrier};
    ``formula_closed`` records whether that set was already a hyperideal.
    When it is not, ``ideal`` is the smallest lattice member containing it.
    """

    ideal: Hyperideal
    generator: int
    formula_set: frozenset
    formula_closed: bool


def principal_ideal(S: FiniteStructure, x: int) -> PrincipalIdeal:
    one = S.require_one()
    S.subset((x,))
    row = S.mul_row(msort((x,) + (one,) * (S.n - 2)))
    raw = frozenset(S.mul_cells[row[r]] for r in S.carrier)
    check = is_hyperideal(S, raw)
    lattice = S.lattice
    if check.ok:
        return PrincipalIdeal(lattice.by_members(raw), x, raw, True)
    enclosing = frozenset(S.carrier)
    for cand in lattice:
        if raw <= cand.members and len(cand.members) < len(enclosing):
            enclosing = cand.members
    return PrincipalIdeal(lattice.member_or_bare(enclosing), x, raw, False)


def maximal_hyperideals(S: FiniteStructure) -> tuple[Hyperideal, ...]:
    return S.lattice.maximal


def jacobson_radical(S: FiniteStructure) -> Hyperideal:
    return S.lattice.jacobson


def is_local(S: FiniteStructure) -> bool:
    """Exactly one maximal hyperideal.  A one-element structure has none."""
    return len(S.lattice.maximal) == 1


def is_prime(S: FiniteStructure, P: Iterable[int]) -> bool:
    """Element form: a zero-divisor-free condition on n-fold products."""
    verdict, _ = prime_witness(S, P)
    return verdict


def _prime(S: FiniteStructure, members: frozenset, prefix) -> Optional[tuple]:
    # the n-multisets extending an (n-1)-prefix: none with every factor
    # outside P may have its product inside P
    if any(k in members for k in prefix):
        return None
    cells, row = S.mul_cells, S.mul_row(prefix)
    for last in range(prefix[-1], S.size):
        if last not in members and cells[row[last]] in members:
            return prefix + (last,)
    return None


PRIME = Clause("prime", lambda S, P: multisets(S.size, S.n - 1), _prime)


def prime_witness(S: FiniteStructure, P: Iterable[int]):
    """(verdict, first n-multiset violating the prime clause or None)."""
    members = S.proper_subset(P)
    witness = PRIME.scan(S, members)
    return witness is None, witness


def is_prime_by_subsets(S: FiniteStructure, P: Iterable[int]) -> bool:
    """Subset form: quantifies over n-tuples of members of ``S.lattice``."""
    members = S.proper_subset(P)
    pool = [i.members for i in S.lattice]
    for combo in multisets(len(pool), S.n):
        sets = [pool[i] for i in combo]
        prods = _set_product(S, sets)
        if prods <= members and not any(u <= members for u in sets):
            return False
    return True


def _set_product(S: FiniteStructure, sets) -> frozenset:
    rank, cells = S.mul_shape.rank, S.mul_cells
    return frozenset(cells[rank[msort(c)]] for c in product(*sets))


def radical_by_primes(S: FiniteStructure, I: Iterable[int]) -> Hyperideal:
    """Intersection of the prime hyperideals containing I (the reference
    definition); the whole carrier when no prime contains I."""
    members = S.subset(I)
    lattice = S.lattice
    return lattice.by_members(lattice.radical(members))


def power_exponents(S: FiniteStructure) -> list[int]:
    """Exponents t for which an n-ary t-th power is defined: t <= n, or
    t = l(n-1)+1.  Bounded by size*(n-1)+1 since powers cycle."""
    n, t_max = S.n, S.size * (S.n - 1) + 1
    return [*range(1, n + 1), *range(2 * n - 1, t_max + 1, n - 1)]


def element_power(S: FiniteStructure, x: int, t: int) -> int:
    """t-th multiplicative power, identity-padded below arity n."""
    one = S.require_one()
    if t <= S.n:
        return S.multiply((x,) * t + (one,) * (S.n - t))
    return S.multiply_iterated((x,) * t)


def radical_by_powers(S: FiniteStructure, I: Iterable[int]) -> frozenset:
    """Elements with some defined power landing in I."""
    S.require_one()
    members = S.subset(I)
    ts = power_exponents(S)
    out = set()
    for x in S.carrier:
        if any(element_power(S, x, t) in members for t in ts):
            out.add(x)
    return frozenset(out)


def _drop(S: FiniteStructure, Q, trigger, target, key) -> Optional[tuple]:
    # the J-family drop clause at an n-multiset whose product lies in Q: for
    # each distinct factor v outside ``trigger``, the product with one copy
    # of v replaced by the identity lands in ``target``; witness (key, v)
    cells = S.mul_cells
    if cells[S.mul_shape.rank[key]] not in Q:
        return None
    for v in sorted(set(key) - trigger):
        i = key.index(v)
        if cells[S.mul_row(key[:i] + key[i + 1 :])[S.one]] not in target:
            return key, v
    return None


DROP = Clause("drop", lambda S, Q, trigger, target: multisets(S.size, S.n), _drop)


def _primary_pair(S: FiniteStructure, Q: frozenset, lattice: IdealLattice, delta):
    # the primary drop clause: factors outside Q trigger it, and their
    # co-products must land in the radical of Q (``delta`` is unused)
    return Q, lattice.radical(Q)


def is_primary(S: FiniteStructure, Q: Iterable[int]):
    """Primary test: whenever a product lands in Q, every factor outside Q
    must leave its identity-substituted co-product inside the radical of Q.
    Returns (verdict, witness); verdict None when no identity exists."""
    members = S.proper_subset(Q)
    if S.one is None:
        return None, None
    hit = DROP.scan(S, members, *_primary_pair(S, members, S.lattice, None))
    if hit is None:
        return True, None
    key, v = hit
    return False, (key, key.index(v))


def residual(S: FiniteStructure, Q: Iterable[int], T: Iterable[int]) -> frozenset:
    """Elements whose product with every member of T (identity padded) lies
    in Q.  Always contains Q by absorption."""
    pad = (S.require_one(),) * (S.n - 2)
    members, tset = S.subset(Q), S.subset(T)
    if not tset:
        raise ValueError("residual requires a nonempty subset")
    rows = [S.mul_row(msort((s,) + pad)) for s in tset]
    return frozenset(
        x for x in S.carrier if all(S.mul_cells[row[x]] in members for row in rows)
    )
