"""Quotient construction and homomorphism machinery.

Quotients are built from cosets r + I + 0 + .. + 0 (position is irrelevant
under multiset keying).  Partitioning and representative-independence of the
induced tables are checked, never assumed: a modulus that breaks either
yields a structured ill-defined-quotient result instead of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product as iproduct
from math import perm
from typing import Iterable, Optional

from .core import (
    BITS,
    AxiomCheck,
    AxiomReport,
    FiniteStructure,
    Meter,
    map_violation,
    msort,
    multisets,
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
    pad = [{S.zero}] * (S.m - 2)
    coset_of_elem: list[frozenset] = []
    for r in S.carrier:
        coset_of_elem.append(S.hyperadd_subsets([{r}, members] + pad))
    cosets: list[frozenset] = []
    for c in coset_of_elem:
        if c not in cosets:
            cosets.append(c)
    # partition check: disjoint cover with each element in its own coset
    problems = []
    covered: set = set()
    for c in cosets:
        if covered & c:
            overlap = sorted(covered & c)[0]
            problems.append(
                AxiomCheck("cosets-partition", False, (tuple(sorted(c)), overlap))
            )
            break
        covered |= c
    for r in S.carrier:
        if not problems and r not in coset_of_elem[r]:
            problems.append(AxiomCheck("cosets-contain-representative", False, (r,)))
            break
    if problems:
        return QuotientResult(False, None, tuple(problems))

    proj = tuple(cosets.index(coset_of_elem[r]) for r in S.carrier)
    reps = [sorted(c) for c in cosets]

    def induced(shape, cell_value) -> Optional[dict]:
        table: dict = {}
        for key in multisets(len(cosets), shape.arity):
            value = None
            first_combo = None
            for combo in iproduct(*[reps[i] for i in key]):
                v = cell_value(shape.rank[msort(combo)])
                if value is None:
                    value, first_combo = v, combo
                elif v != value:
                    problems.append(
                        AxiomCheck(
                            "induced-well-defined",
                            False,
                            (key, first_combo, combo),
                        )
                    )
                    return None
            table[key] = value
        return table

    add_table = induced(
        S.add_shape, lambda r: frozenset(proj[s] for s in BITS[S.add_cells[r]])
    )
    if add_table is None:
        return QuotientResult(False, None, tuple(problems))
    mul_table = induced(S.mul_shape, lambda r: proj[S.mul_cells[r]])
    if mul_table is None:
        return QuotientResult(False, None, tuple(problems))

    labels = tuple(_coset_label(S, c) for c in cosets)
    zero = proj[S.zero]
    ideal_labels = ",".join(S.labels_of(members))
    Q = FiniteStructure.build(
        f"{S.name}/{{{ideal_labels}}}", S.m, S.n, labels, add_table, mul_table, zero
    )
    qs = QuotientStructure(S, members, Q, tuple(cosets), proj)
    report = verify_krasner(Q)
    return QuotientResult(True, qs, (), report)


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
