"""Quotient construction and homomorphism machinery.

Quotients are built from cosets r + I + 0 + .. + 0 (position is irrelevant
under multiset keying), each the union of the hyperaddition cells of one
``ext`` row over I.  Partitioning and representative-independence of the
induced tables are checked, never assumed: a modulus that breaks either
yields a structured ill-defined-quotient result instead of a crash.  Each
induced table is one pass over the base cells through ``core.carrier_map``
of the projection, handed to ``FiniteStructure.build`` as a ranked view;
the representatives of a coset key are walked only to name the witness of
an ill-defined table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product as iproduct
from math import perm
from typing import Iterable, Optional

from .core import (
    BITS,
    SETS,
    AxiomCheck,
    AxiomReport,
    FiniteStructure,
    Meter,
    TableView,
    _union,
    carrier_map,
    map_violation,
    mask_of,
    msort,
    table_shape,
    verify_krasner,
)
from .classifiers import ExpansionFunction, table_expansion
from .ideals import is_hyperideal


@dataclass(frozen=True)
class QuotientStructure:
    base: FiniteStructure
    modulus: frozenset
    structure: FiniteStructure
    cosets: tuple[frozenset, ...]
    projection: tuple[int, ...]  # base element -> coset index

    def project(self, members: Iterable[int]) -> frozenset:
        return frozenset(self.projection[x] for x in members)

    def unproject(self, coset_members: Iterable[int]) -> frozenset:
        keep = set(coset_members)
        return frozenset(
            x for x in self.base.carrier if self.projection[x] in keep
        )


@dataclass(frozen=True)
class QuotientResult:
    ok: bool
    quotient: Optional[QuotientStructure]
    problems: tuple[AxiomCheck, ...]
    axiom_report: Optional[AxiomReport] = None


def _coset_label(S: FiniteStructure, members: frozenset) -> str:
    return "{" + ",".join(S.labels_of(members)) + "}"


def quotient(S: FiniteStructure, I: Iterable[int]) -> QuotientResult:
    """Build the quotient by a hyperideal, checking well-definedness.

    Cosets are computed for every element; duplicates merge.  Failure to
    partition the carrier or representative-dependence of an induced table
    entry is returned as a problem witness with ok=False.
    """
    members = frozenset(I)
    check = is_hyperideal(S, members)
    if not check.ok:
        return QuotientResult(
            False,
            None,
            (AxiomCheck("modulus-hyperideal", False, (check.clause, check.witness)),),
        )
    # the coset of r is f(r, I, 0, .., 0): the union of the row of (r, 0, .., 0)
    pad, modulus = (S.zero,) * (S.m - 2), mask_of(members)
    coset_of_elem = [_union(S.add_cells, S.add_row(msort((r,) + pad)), modulus) for r in S.carrier]
    cosets = list(dict.fromkeys(coset_of_elem))
    # partition check: disjoint cover with each element in its own coset
    covered = 0
    for c in cosets:
        if covered & c:
            overlap = BITS[covered & c][0]
            return QuotientResult(
                False, None, (AxiomCheck("cosets-partition", False, (BITS[c], overlap)),)
            )
        covered |= c
    for r in S.carrier:
        if not coset_of_elem[r] >> r & 1:
            return QuotientResult(
                False, None, (AxiomCheck("cosets-contain-representative", False, (r,)),)
            )

    index = {c: i for i, c in enumerate(cosets)}
    proj = tuple(index[c] for c in coset_of_elem)
    reps = [BITS[c] for c in cosets]
    tables = []
    for table in (S.add, S.mul):
        view, problem = _induced(table, proj, reps)
        if problem is not None:
            return QuotientResult(False, None, (problem,))
        tables.append(view)

    labels = tuple(_coset_label(S, SETS[c]) for c in cosets)
    ideal_labels = ",".join(S.labels_of(members))
    Q = FiniteStructure.build(
        f"{S.name}/{{{ideal_labels}}}", S.m, S.n, labels, *tables, proj[S.zero]
    )
    qs = QuotientStructure(S, members, Q, tuple(SETS[c] for c in cosets), proj)
    return QuotientResult(True, qs, (), verify_krasner(Q))


def _induced(table: TableView, proj: tuple, reps: list):
    """(view, problem): the table induced on the cosets, one pass over the
    base cells through ``carrier_map``, and None; or None and the
    ``induced-well-defined`` problem of the least coset key whose base cells
    disagree, named by its first representative tuple and the first one,
    in ``product`` order of the sorted representatives, with another value."""
    shape, into = table.shape, table_shape(len(reps), table.shape.arity)
    image, target = carrier_map(proj, shape.arity, shape.size, len(reps))
    values = list(map((image if table.sets else proj).__getitem__, table.cells))
    # proj is onto, so every coset key is the target of some base cell
    induced = dict(zip(target, values))
    if [induced[t] for t in target] == values:
        return TableView(into, tuple(induced[t] for t in range(len(into.keys))), table.sets), None
    key = into.keys[min(t for t, v in zip(target, values) if induced[t] != v)]
    combos = iproduct(*[reps[i] for i in key])
    first = next(combos)
    value = values[shape.rank[msort(first)]]
    combo = next(c for c in combos if values[shape.rank[msort(c)]] != value)
    return None, AxiomCheck("induced-well-defined", False, (key, first, combo))


# -- homomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteStructure
    target: FiniteStructure
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.size:
            raise ValueError("mapping must be total on the source carrier")
        if not all(0 <= y < self.target.size for y in self.mapping):
            raise ValueError("mapping lands outside the target carrier")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image(self, members: Iterable[int]) -> frozenset:
        return frozenset(self.mapping[x] for x in members)

    def preimage(self, members: Iterable[int]) -> frozenset:
        keep = frozenset(members)
        return frozenset(x for x in self.source.carrier if self.mapping[x] in keep)

    @cached_property
    def injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @cached_property
    def surjective(self) -> bool:
        return set(self.mapping) == set(self.target.carrier)


def kernel(h: Homomorphism) -> frozenset:
    return h.preimage({h.target.zero})


def is_homomorphism(h: Homomorphism):
    """Exhaustive preservation check; returns (ok, witness).

    Hyperaddition must be preserved as set equality, multiplication on the
    nose.  Arities of source and target must agree.
    """
    S, T = h.source, h.target
    if (S.m, S.n) != (T.m, T.n):
        return False, ("arity", (S.m, S.n), (T.m, T.n))
    witness = _violation(tuple(h.mapping), S, T)
    return witness is None, witness


def _violation(phi: tuple, S: FiniteStructure, T: FiniteStructure):
    # (table, first key) of the first cell of S that phi does not carry over
    # to T, hyperaddition first; None for a homomorphism
    for kind, table, into in (("add", S.add, T.add), ("mul", S.mul, T.mul)):
        key = map_violation(phi, table, into)
        if key is not None:
            return kind, key
    return None


def is_delta_gamma_hom(h: Homomorphism, delta: ExpansionFunction, gamma: ExpansionFunction):
    """delta(h^-1(I)) == h^-1(gamma(I)) for every target hyperideal I, over
    the lattices of ``h.source`` and ``h.target``.

    Returns (ok, witness).  A preimage that is not a source hyperideal makes
    the condition unevaluable and is reported as a witness.
    """
    ok, w = is_homomorphism(h)
    if not ok:
        raise ValueError(f"not a homomorphism: {w}")
    for I in h.target.lattice:
        pre = h.preimage(I.members)
        if pre not in h.source.lattice:
            return False, ("preimage-not-ideal", tuple(sorted(I.members)))
        if delta(pre) != h.preimage(gamma(I.members)):
            return False, ("expansion-mismatch", tuple(sorted(I.members)))
    return True, None


def image_ideal(h: Homomorphism, members: Iterable[int]):
    """Set image plus its hyperideal check in the target."""
    img = h.image(members)
    return img, is_hyperideal(h.target, img)


def preimage_ideal(h: Homomorphism, members: Iterable[int]):
    pre = h.preimage(members)
    return pre, is_hyperideal(h.source, pre)


# -- fixture generators ------------------------------------------------------


def identity_hom(S: FiniteStructure) -> Homomorphism:
    return Homomorphism(S, S, tuple(S.carrier))


def projection_hom(q: QuotientStructure) -> Homomorphism:
    return Homomorphism(q.base, q.structure, q.projection)


def enumerate_homomorphisms(
    S: FiniteStructure,
    T: FiniteStructure,
    injective_only: bool = False,
) -> list[Homomorphism]:
    """All (mono)morphisms S -> T by exhaustive map enumeration; the maps
    it would try count against the work budget before the walk starts."""
    if (S.m, S.n) != (T.m, T.n):
        return []
    tries = perm(T.size, S.size) if injective_only else T.size**S.size
    Meter(f"{S.name} -> {T.name}: homomorphism maps").spend(tries)
    if injective_only:
        maps = permutations(range(T.size), S.size)  # the injective maps, in order
    else:
        maps = iproduct(range(T.size), repeat=S.size)
    return [Homomorphism(S, T, phi) for phi in maps if _violation(phi, S, T) is None]


def quotient_expansion(q: QuotientStructure, base_delta: ExpansionFunction) -> ExpansionFunction:
    """The induced expansion on the quotient's lattice: K/I maps to
    delta(K)/I.

    Every quotient hyperideal is pulled back along the projection; the
    pullback must be a base hyperideal containing the modulus, which holds
    for well-defined quotients and is asserted here.
    """
    table = {}
    for K in q.structure.lattice:
        pulled = q.unproject(K.members)
        if pulled not in q.base.lattice:
            raise ValueError(
                f"pullback of {sorted(K.members)} is not a hyperideal of {q.base.name}"
            )
        table[K.members] = q.project(base_delta(pulled))
    return table_expansion(f"{base_delta.name}_q", table)
