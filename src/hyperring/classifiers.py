"""Expansion functions, the J-family hyperideal predicates and the predicate
table.

An expansion function assigns to every hyperideal a larger hyperideal,
monotonically.  The classifiers decide, for a proper hyperideal Q:

* J-hyperideal: products landing in Q force the identity-substituted
  co-product into Q whenever the dropped factor avoids the Jacobson radical;
* delta-J: same, with the co-product allowed to land in delta(Q);
* delta-primary: same, with "dropped factor avoids Q" as the trigger;
* (k,n)-absorbing delta-J: for products of k(n-1)+1 factors in Q, either the
  leading (k-1)(n-1)+1 sub-product lies in the Jacobson radical or some other
  sub-product of that length lies in delta(Q).

``PREDICATES`` is the one ordered table of every predicate the workbench
names: prime, primary, maximal, J, delta-J, delta-primary and absorbing.  A
row holds the name, its parameters (none, an expansion, or an expansion and
k) and one evaluator; a drop-clause row (J, delta-J, delta-primary, primary)
also holds its witness name and the ``(trigger, target)`` function that its
scan and ``replay_witness`` both read.  ``classify`` and
``catalog.search_counterexample`` call the same evaluators.

Each call takes one handle: a call about hyperideals takes the structure
and reads ``S.lattice`` (the evaluators ``evaluate(S, Q, delta, k)``,
``replay_witness``, the two delta-J forms), and a call about expansions
takes the lattice and reads ``lattice.parent`` (the three standard
expansions, ``standard_registry``, ``validate_expansion``,
``preserves_intersections``).  The one exception is the four public
J-family predicates, their ``_drop_row`` and the rows' ``pair``, which take
the structure and a lattice.  Each predicate checks its subset first, with
``FiniteStructure.proper_subset`` (the absorbing one then its k), answers
IMPROPER for a subset that is not a member of that lattice, then
NOT_APPLICABLE without an identity; ``classify`` checks with ``.subset`` and
calls the carrier and every non-ideal IMPROPER.

Scans run over multisets and per-length product tables (commutativity is
structural) and report concrete tuples as witnesses.  The absorbing scan
tests each distinct row signature (value bitmasks, built once per structure
and length from split ranks kept per shape) in first-row order, so the
first failing one gives the row-by-row scan's witness.  ``replay_witness``
re-checks the prime and drop clauses with the functions their scans use,
and the absorbing scan against the literal tuple-level definition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Mapping, Optional

from .core import (
    AxiomCheck,
    AxiomReport,
    CapExceeded,
    FiniteStructure,
    Meter,
    count_multisets,
    mask_of,
    msort,
    multisets,
    plan_splits,
    ranked_plan,
    table_shape,
)
from .ideals import (
    DROP,
    PRIME,
    IdealLattice,
    _primary_pair,
    _set_product,
    is_hyperideal,
    is_primary,
    prime_witness,
)


class Verdict(str, Enum):
    TRUE = "true"
    FALSE = "false"
    NOT_APPLICABLE = "not_applicable"  # no scalar identity, or over the work budget
    IMPROPER = "improper"  # subset is the whole carrier or not an ideal

    def __bool__(self) -> bool:
        return self is Verdict.TRUE


@dataclass(frozen=True)
class Witness:
    """Replayable evidence for a negative predicate verdict."""

    predicate: str
    ideal: tuple  # sorted members of Q
    args: tuple  # offending product tuple
    index: Optional[int] = None  # dropped position within args
    prefix_len: Optional[int] = None  # absorbing: leading sub-product length
    delta: Optional[str] = None
    k: Optional[int] = None

    def as_dict(self) -> dict:
        return {**asdict(self), "ideal": list(self.ideal), "args": list(self.args)}


@dataclass(frozen=True)
class PredicateResult:
    verdict: Verdict
    witness: Optional[Witness] = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.verdict is Verdict.TRUE


# -- expansion functions -----------------------------------------------------


@dataclass(frozen=True)
class ExpansionFunction:
    """Total map on a lattice's member sets, intended to be inflationary and
    monotone.  Built-ins are constructed per lattice; arbitrary user tables
    are accepted and validated the same way."""

    name: str
    table: Mapping[frozenset, frozenset]

    def __call__(self, members) -> frozenset:
        try:
            return self.table[members]
        except (KeyError, TypeError):  # another collection of members, or undefined
            key = frozenset(getattr(members, "members", members))
        try:
            return self.table[key]
        except KeyError:
            raise KeyError(f"{self.name} is not defined on {sorted(key)}") from None


def identity_expansion(lattice: IdealLattice) -> ExpansionFunction:
    return ExpansionFunction("delta0", {i.members: i.members for i in lattice})


def radical_expansion(lattice: IdealLattice) -> ExpansionFunction:
    # by_members raises KeyError for a radical outside the lattice
    return ExpansionFunction(
        "delta1",
        {i.members: lattice.by_members(lattice.radical(i.members)).members for i in lattice},
    )


def constant_expansion(lattice: IdealLattice) -> ExpansionFunction:
    top = frozenset(lattice.parent.carrier)
    return ExpansionFunction("deltaR", {i.members: top for i in lattice})


def table_expansion(name: str, table: Mapping) -> ExpansionFunction:
    return ExpansionFunction(
        name, {frozenset(k): frozenset(v) for k, v in table.items()}
    )


# the always-shipped expansions by name, each built per lattice
STANDARD_EXPANSIONS = {
    "delta0": identity_expansion,
    "delta1": radical_expansion,
    "deltaR": constant_expansion,
}


def standard_registry(lattice: IdealLattice) -> dict:
    """The always-shipped expansions, in deterministic order."""
    return {name: make(lattice) for name, make in STANDARD_EXPANSIONS.items()}


def compose_expansions(
    outer: ExpansionFunction, inner: ExpansionFunction
) -> ExpansionFunction:
    """Pointwise composition outer(inner(.)); valid inputs compose to a
    valid expansion, which is asserted rather than re-reported."""
    table = {k: outer(inner(k)) for k in inner.table}
    composed = ExpansionFunction(f"{outer.name}o{inner.name}", table)
    for k, v in table.items():
        assert k <= v, "composition lost inflationarity"
    return composed


def validate_expansion(lattice: IdealLattice, delta: ExpansionFunction) -> AxiomReport:
    """Check totality, inflationarity and monotonicity over the lattice.
    A failed check names its first witness in lattice order, except that a
    key off the lattice, or with its value off it, comes in table order."""
    table, checks = delta.table, []
    defined = [i.members for i in lattice if i.members in table]
    missing = ((i.members,) for i in lattice if i.members not in table)
    stray = ((k,) for k, v in table.items() if k not in lattice or v not in lattice)
    crossed = ((I, J) for I in defined for J in defined if I <= J and not table[I] <= table[J])
    for axiom, found in (
        ("expansion-total", chain(missing, stray)),
        ("expansion-inflationary", ((I,) for I in defined if not I <= table[I])),
        ("expansion-monotone", crossed),
    ):
        witness = next(found, None)
        sets = witness and tuple(tuple(sorted(s)) for s in witness)
        checks.append(AxiomCheck(axiom, witness is None, sets))
    return AxiomReport(f"{lattice.parent.name}:{delta.name}", tuple(checks))


def preserves_intersections(lattice: IdealLattice, delta: ExpansionFunction) -> bool:
    """delta(I & J) == delta(I) & delta(J) over all lattice pairs."""
    for i in lattice:
        for j in lattice:
            meet = i.members & j.members
            if meet not in lattice:
                continue  # lattice invariant says this cannot happen
            if delta(meet) != delta(i.members) & delta(j.members):
                return False
    return True


# -- predicate scans ---------------------------------------------------------


NO_IDENTITY = "no scalar identity detected"
NOT_IDEAL = "not a hyperideal"


def _drop_row(
    name: str,
    S: FiniteStructure,
    Q: Iterable[int],
    lattice: IdealLattice,
    delta: Optional[ExpansionFunction] = None,
) -> PredicateResult:
    """The scan of a drop-clause row: for every n-multiset with product in Q
    and every distinct factor v outside the row's trigger, the product with
    v replaced by the identity must land in the row's target."""
    row = PREDICATES[name]
    members = S.proper_subset(Q)
    if members not in lattice:
        return PredicateResult(Verdict.IMPROPER, note=NOT_IDEAL)
    if S.one is None:
        return PredicateResult(Verdict.NOT_APPLICABLE, note=NO_IDENTITY)
    hit = DROP.scan(S, members, *row.pair(S, members, lattice, delta))
    if hit is None:
        return PredicateResult(Verdict.TRUE)
    key, v = hit
    delta_name = None if delta is None else delta.name
    witness = Witness(row.witness, tuple(sorted(members)), key, index=key.index(v), delta=delta_name)
    return PredicateResult(Verdict.FALSE, witness)


def is_j_hyperideal(
    S: FiniteStructure, Q: Iterable[int], lattice: IdealLattice
) -> PredicateResult:
    return _drop_row("J", S, Q, lattice)


def is_delta_j(
    S: FiniteStructure,
    Q: Iterable[int],
    delta: ExpansionFunction,
    lattice: IdealLattice,
) -> PredicateResult:
    return _drop_row("delta-J", S, Q, lattice, delta)


def is_delta_primary(
    S: FiniteStructure,
    Q: Iterable[int],
    delta: ExpansionFunction,
    lattice: IdealLattice,
) -> PredicateResult:
    return _drop_row("delta-primary", S, Q, lattice, delta)


def _form_holds(S: FiniteStructure, Q: frozenset, delta: ExpansionFunction, mixed: bool) -> bool:
    """A delta-J form on the form's row of ``S.lattice``, built on first use
    and kept on the lattice: each product mask of the form's factor tuples
    maps to the OR of the masks of its identity-substituted products, and
    every substituted product lies in delta(Q) iff their union does."""
    rows = vars(S.lattice).setdefault("_form_rows", {})
    if mixed not in rows:
        jac, one = S.lattice.jacobson.members, frozenset({S.require_one()})
        pool = [i.members for i in S.lattice]
        row: dict = {}
        for combo in multisets(len(pool), S.n - 1 if mixed else S.n):
            sets = [pool[i] for i in combo]
            if mixed:
                subs = mask_of(_set_product(S, sets + [one]))
                cases = [(sets + [frozenset({x})], subs) for x in S.carrier if x not in jac]
            else:
                subs = 0
                for slot, member in enumerate(sets):
                    if not member <= jac:
                        subs |= mask_of(_set_product(S, sets[:slot] + [one] + sets[slot + 1 :]))
                cases = [(sets, subs)]
            for factors, subs in cases:
                prod = mask_of(_set_product(S, factors))
                row[prod] = row.get(prod, 0) | subs
        rows[mixed] = row
    q, t = mask_of(Q), mask_of(delta(Q))
    return not any(not prod & ~q and subs & ~t for prod, subs in rows[mixed].items())


def delta_j_ideal_form(S: FiniteStructure, Q: frozenset, delta: ExpansionFunction) -> bool:
    """The delta-J property over hyperideals: for every n-multiset of members
    of ``S.lattice`` with product inside Q, each member not inside the
    Jacobson radical leaves the identity-substituted product inside
    delta(Q); read off its per-lattice mask row (``_form_holds``)."""
    return _form_holds(S, Q, delta, False)


def delta_j_mixed_form(S: FiniteStructure, Q: frozenset, delta: ExpansionFunction) -> bool:
    """The delta-J property over n-1 hyperideals and one element x: a
    product inside Q with x outside the Jacobson radical leaves the product
    with x replaced by the identity inside delta(Q); read off a mask row."""
    return _form_holds(S, Q, delta, True)


def absorbing_arity(n: int, k: int) -> tuple[int, int]:
    """(product length, sub-product length) for the (k,n)-absorbing test."""
    return k * (n - 1) + 1, (k - 1) * (n - 1) + 1


@lru_cache(maxsize=128)
def _split_ranks(size: int, total: int, part: int) -> tuple:
    """Per ``ranked_plan`` row: the ranks a of its splits (A, a, b), in
    order, and the ranks of the splits without a repeat, where no value of A
    has further copies in the remainder.  Shared by every structure of a
    shape."""
    rests = table_shape(size, total - part).keys
    return tuple(
        (
            tuple(a for _, a, _ in splits),
            tuple(a for A, a, b in splits if not any(v in rests[b] for v in A)),
        )
        for _, splits in ranked_plan(size, total, part)
    )


def _signatures(S: FiniteStructure, total: int, part: int) -> tuple:
    """The distinct row signatures ``(1 << whole, P, single)`` of the
    (total, part) absorbing scan, each with its first rank, in rank order.
    P is the bitmask of a row's sub-product values; single holds those that
    exactly one split gives, when that split has no repeat.  Built once per
    structure and (total, part), kept out of equality and hashing, after the
    splits, and the key elements of the product tables, are counted against
    the work budget."""
    tables = vars(S).setdefault("_absorbing", {})
    if (total, part) not in tables:
        Meter(f"{S.name}: absorbing signature splits").spend(plan_splits(S.size, total, part))
        meter = Meter(f"{S.name}: absorbing product tables")
        for t in range(1, total + 1, S.n - 1):
            meter.spend(count_multisets(S.size, t) * t)
        wholes = S.product_table(total)
        bit = [1 << v for v in S.product_table(part)]
        first: dict = {}
        for r, (ranks, lone) in enumerate(_split_ranks(S.size, total, part)):
            P = multi = single = 0
            for a in ranks:
                multi |= P & bit[a]
                P |= bit[a]
            for a in lone:
                single |= bit[a]
            first.setdefault((1 << wholes[r], P, single & ~multi), r)
        tables[total, part] = tuple((*sig, r) for sig, r in first.items())
    return tables[total, part]


def is_absorbing_delta_j(
    S: FiniteStructure,
    Q: Iterable[int],
    delta: ExpansionFunction,
    k: int,
    lattice: IdealLattice,
) -> PredicateResult:
    """(k,n)-absorbing delta-J scan.

    Runs over multisets; for a fixed multiset the excluded "leading"
    sub-product ranges over every sub-multiset A, and A itself counts as an
    alternative sub-product exactly when some value of A has further copies
    in the remainder (then an index selection other than the prefix realises
    it).  This matches the tuple-level definition, which the witness replay
    re-checks literally.  A subset that is not a member of ``lattice`` is
    IMPROPER; over the work budget the verdict is NOT_APPLICABLE.

    A row's verdict depends only on its signature (``_signatures``): with
    its whole in Q, it fails when no sub-product lies in delta(Q) and some
    lies outside the Jacobson radical J, or when one split alone gives a
    value v in delta(Q), without a repeat, and v lies outside J.  The first
    failing signature in first-rank order is the first failing row; the
    witness is that row's first split with a failing value.
    """
    members = S.proper_subset(Q)
    if k < 2:
        raise ValueError("absorbing degree k must be at least 2")
    if members not in lattice:
        return PredicateResult(Verdict.IMPROPER, note=NOT_IDEAL)
    total, part = absorbing_arity(S.n, k)
    try:
        signatures = _signatures(S, total, part)
    except CapExceeded as e:
        return PredicateResult(Verdict.NOT_APPLICABLE, note=str(e))
    sets = (members, delta(members), lattice.jacobson.members)
    q, d, j = (sum(1 << x for x in s) for s in sets)
    for whole, P, single, r in signatures:
        hit = P & d
        if not whole & q or hit & (hit - 1):  # two values in delta(Q) leave an alternative
            continue
        bad = (hit & single if hit else P) & ~j
        if bad:
            parts, (_, splits) = S.product_table(part), ranked_plan(S.size, total, part)[r]
            A, _, b = next(split for split in splits if 1 << parts[split[1]] & bad)
            return PredicateResult(
                Verdict.FALSE,
                Witness(
                    "absorbing-delta-j",
                    tuple(sorted(members)),
                    A + table_shape(S.size, total - part).keys[b],
                    prefix_len=part,
                    delta=delta.name,
                    k=k,
                ),
            )
    return PredicateResult(Verdict.TRUE)


def replay_witness(
    S: FiniteStructure, registry: Mapping[str, ExpansionFunction], w: Witness
) -> bool:
    """Re-run the violated clause on the witness tuple; True means the
    violation reproduces.

    The prime and drop replays call the clause their scans use; a drop
    replay takes its (trigger, target) pair from the table row whose
    witness name it carries.  The absorbing replay is deliberately separate:
    it enumerates index subsets of the witness tuple, the tuple-level
    definition, and so is the reference that the multiset scan of
    ``is_absorbing_delta_j`` is checked against.
    """
    Q = frozenset(w.ideal)
    args = tuple(w.args)
    if w.predicate == "prime":
        return PRIME.replays(msort(args), S, Q)
    if w.predicate == "absorbing-delta-j":
        dQ = registry[w.delta](Q)
        part = w.prefix_len
        if S.multiply_iterated(args) not in Q:
            return False
        prefix = args[:part]
        if S.multiply_iterated(prefix) in S.lattice.jacobson.members:
            return False
        prefix_ids = tuple(range(part))
        for ids in combinations(range(len(args)), part):
            if ids == prefix_ids:
                continue
            if S.multiply_iterated(tuple(args[i] for i in ids)) in dQ:
                return False
        return True
    row = next(
        (r for r in PREDICATES.values() if r.pair and r.witness == w.predicate), None
    )
    if row is None:
        raise ValueError(f"no replay rule for predicate {w.predicate!r}")
    delta = registry[w.delta] if row.params else None
    trigger, target = row.pair(S, Q, S.lattice, delta)
    return DROP.replays((msort(args), args[w.index]), S, Q, trigger, target)


# -- the predicate table -----------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """One row of the predicate table: ``evaluate(S, Q, delta, k)`` gives
    the row's result on ``S.lattice``; a drop-clause row also names its
    witnesses and gives ``pair(S, Q, lattice, delta) -> (trigger, target)``,
    the lattice being the one the J-family predicates are given."""

    name: str
    params: int  # 0: none, 1: an expansion, 2: an expansion and k
    evaluate: Callable
    witness: Optional[str] = None
    pair: Optional[Callable] = None


def _prime(S, Q, delta, k) -> PredicateResult:
    ok, args = prime_witness(S, Q)
    witness = args and Witness("prime", tuple(sorted(Q)), args)
    return PredicateResult(Verdict.TRUE if ok else Verdict.FALSE, witness)


def _primary(S, Q, delta, k) -> PredicateResult:
    ok, hit = is_primary(S, Q)
    if ok is None:
        return PredicateResult(Verdict.NOT_APPLICABLE, note=NO_IDENTITY)
    witness = hit and Witness(PREDICATES["primary"].witness, tuple(sorted(Q)), *hit)
    return PredicateResult(Verdict.TRUE if ok else Verdict.FALSE, witness)


def _maximal(S, Q, delta, k) -> PredicateResult:
    ok = any(m.members == Q for m in S.lattice.maximal)
    return PredicateResult(Verdict.TRUE if ok else Verdict.FALSE)


PREDICATES = {
    row.name: row
    for row in (
        Predicate("prime", 0, _prime),
        Predicate("primary", 0, _primary, "primary", _primary_pair),
        Predicate("maximal", 0, _maximal),
        Predicate(
            "J",
            0,
            lambda S, Q, delta, k: is_j_hyperideal(S, Q, S.lattice),
            "j-hyperideal",
            lambda S, Q, lattice, delta: (lattice.jacobson.members, Q),
        ),
        Predicate(
            "delta-J",
            1,
            lambda S, Q, delta, k: is_delta_j(S, Q, delta, S.lattice),
            "delta-j",
            lambda S, Q, lattice, delta: (lattice.jacobson.members, delta(Q)),
        ),
        Predicate(
            "delta-primary",
            1,
            lambda S, Q, delta, k: is_delta_primary(S, Q, delta, S.lattice),
            "delta-primary",
            lambda S, Q, lattice, delta: (Q, delta(Q)),
        ),
        Predicate(
            "absorbing",
            2,
            lambda S, Q, delta, k: is_absorbing_delta_j(S, Q, delta, k, S.lattice),
        ),
    )
}


# -- classification reports --------------------------------------------------


@dataclass
class ClassificationReport:
    """Per-ideal verdicts for every registered predicate."""

    structure: str
    subset: tuple[str, ...]
    is_ideal: bool
    ideal_clause: Optional[str]
    proper: bool
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "subset": list(self.subset),
            "is_ideal": self.is_ideal,
            "ideal_clause": self.ideal_clause,
            "proper": self.proper,
            "verdicts": {k: v.value for k, v in self.verdicts.items()},
            "witnesses": {k: w.as_dict() for k, w in self.witnesses.items()},
            "notes": dict(self.notes),
        }


def _instances(registry: Mapping, k_max: int):
    """(key, row, expansion name, k) per classify verdict, in report order:
    the rows without parameters, then the expansion rows per expansion, then
    the absorbing row per expansion and k."""
    groups = (
        [("", None, None)],
        [(f"[{d}]", d, None) for d in registry],
        [(f"[{d},k={k}]", d, k) for d in registry for k in range(2, k_max + 1)],
    )
    for params, group in enumerate(groups):
        for suffix, d, k in group:
            for row in PREDICATES.values():
                if row.params == params:
                    yield row.name + suffix, row, d, k


def classify(
    S: FiniteStructure,
    subset: Iterable[int],
    registry: Optional[Mapping[str, ExpansionFunction]] = None,
    k_max: int = 3,
) -> ClassificationReport:
    """Run every row of ``PREDICATES`` on one subset, deterministically.

    Non-ideals and the whole carrier get IMPROPER verdicts across the board;
    identity-dependent predicates report NOT_APPLICABLE when the structure
    has no scalar identity.  The rows read ``S.lattice``; the registry
    defaults to that lattice's ``registry``.
    """
    members = S.subset(subset)
    registry = S.lattice.registry if registry is None else registry
    check = is_hyperideal(S, members)
    proper = len(members) < S.size
    report = ClassificationReport(
        structure=S.name,
        subset=S.labels_of(members),
        is_ideal=check.ok,
        ideal_clause=check.clause,
        proper=proper,
    )
    improper = not check.ok or not proper
    if improper:
        report.notes["reason"] = NOT_IDEAL if not check.ok else "whole carrier"
    for key, row, d, k in _instances(registry, k_max):
        if improper:
            report.verdicts[key] = Verdict.IMPROPER
            continue
        res = row.evaluate(S, members, None if d is None else registry[d], k)
        report.verdicts[key] = res.verdict
        if res.witness is not None:
            report.witnesses[key] = res.witness
        if res.note:
            report.notes[key] = res.note
    return report
