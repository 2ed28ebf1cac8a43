"""Executable theorem registry and the catalog audit runner.

Each registered check T01..T27 is one ``Implication`` about J-family
hyperideals, quantified over a structure's lattice (and, for the transfer
checks, over quotients and homomorphism fixtures: one ``HomFixture`` per
homomorphism, with its compatible (delta, gamma) pairs and the preimages
and images it carries):

* ``gate(ctx)`` returns a skip reason when the check is out of scope;
* ``domain(ctx)`` yields the instances, as tuples, in a fixed order;
* ``hypothesis(ctx, *inst)`` says whether an instance is in range; every
  instance where it holds counts as checked;
* ``conclusion(ctx, *inst)`` returns None where the statement holds,
  otherwise the witness fields.

One runner evaluates them all: the first failing conclusion makes the cell
FAIL with a replayable witness, otherwise the cell PASSes.  An equivalence
is an implication with a true hypothesis whose conclusion is that its sides
agree.  A cell is SKIPped with a reason when the structure fails
verification, lacks a scalar identity the check needs, fails the gate, or
would take the check past the work budget; when the budget refuses the
structure's lattice, the context keeps the message and every later cell
SKIPs with it, without building the lattice again.

The checks share what they read through a ``StructureContext``, which
keeps each value once.  Its ``verdict`` evaluates a row of
``classifiers.PREDICATES``, or one of the delta-J reference forms that T04,
T15 and T16 compare with it, on a structure (the audited one, a quotient or
a fixture's target) once per lattice, row, member set Q, delta(Q) read from
the expansion's table (none for a Q outside the lattice) and k.  It keeps
the principal hyperideals (T17), the compositions ``gammaodelta`` (T11) and
which expansions preserve intersections (T14); radicals are read from
delta1.  An expansion enters the verdicts only through the set delta(Q), so
expansions that agree on Q share one result: a registered one, a
composition or an induced quotient expansion ``delta_q``.  Theorem
instances carry the expansion, and a witness found for another expansion is
returned under the name asked for.
The context, its quotients and its hom fixtures hold structures only; every
lattice is read as ``S.lattice``.  The memo key holds ``S.lattice`` itself,
which hashes by identity (a structure hashes by walking its tables), so the
memo keeps every lattice it names alive.

``AuditReport.to_jsonl`` writes the records of ``json.dumps(record,
sort_keys=True)``; cell lines are written directly, each distinct string
escaped once.

Built-in claims are compared against computed verdicts and mismatches are
emitted as discrepancy records: auditing the claims is part of the job, so a
mismatch is a finding, not an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, NamedTuple, Optional

from . import __version__, core
from .catalog import CatalogEntry, Claim
from .classifiers import (
    PREDICATES,
    Verdict,
    compose_expansions,
    delta_j_ideal_form,
    delta_j_mixed_form,
    is_j_hyperideal,
    preserves_intersections,
)
from .core import CapExceeded, FiniteStructure, Meter, _jsonable
from .fileformat import export_structure
from .ideals import (
    DROP,
    is_hyperideal,
    is_local,
    prime_witness,
    principal_ideal,
    residual,
)
from .morphology import (
    Homomorphism,
    QuotientStructure,
    enumerate_homomorphisms,
    identity_hom,
    kernel,
    projection_hom,
    quotient,
    quotient_expansion,
)

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"
MONO_FIXTURE_MAX_ORDER = 3
# one encoder for every JSONL record, as ``json.dumps(r, sort_keys=True)``
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class AuditCell:
    structure: str
    theorem: str
    status: str
    checked: int = 0
    reason: str = ""
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return dict(vars(self))  # shallow; dataclasses.asdict deep-copies the witness


@dataclass
class Discrepancy:
    structure: str
    claim: dict
    expected: str
    computed: str
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return dict(vars(self))  # shallow; dataclasses.asdict deep-copies the witness


@dataclass
class AuditReport:
    version: str
    catalog_hash: str
    k_max: int
    cells: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for c in self.cells:
            out[c.status] += 1
        return out

    def to_jsonl(self) -> str:
        """One ``json.dumps(record, sort_keys=True)`` line per record, cell
        lines written directly in that key order."""
        counts = self.counts()
        encode = _JSONL_ENCODER.encode
        quote = lru_cache(maxsize=None)(encode)
        meta = {"version": self.version, "catalog_hash": self.catalog_hash, "k_max": self.k_max}
        summary = {
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "skip": counts[SKIP],
            "discrepancies": len(self.discrepancies),
        }
        return "".join(
            [
                encode({"record": "meta", **meta}) + "\n",
                *(
                    f'{{"checked": {c.checked}, "reason": {quote(c.reason)}, "record": "cell",'
                    f' "status": {quote(c.status)}, "structure": {quote(c.structure)},'
                    f' "theorem": {quote(c.theorem)},'
                    f' "witness": {"null" if c.witness is None else encode(c.witness)}}}\n'
                    for c in self.cells
                ),
                *(encode({"record": "discrepancy", **d.as_dict()}) + "\n" for d in self.discrepancies),
                encode({"record": "summary", **summary}) + "\n",
            ]
        )

    def summary_text(self) -> str:
        counts = self.counts()
        lines = [
            f"audit: {counts[PASS]} pass, {counts[FAIL]} fail, {counts[SKIP]} skip"
            f" over {len({c.structure for c in self.cells})} structures;"
            f" {len(self.discrepancies)} discrepancy record(s)"
        ]
        for c in self.cells:
            if c.status == FAIL:
                lines.append(f"  FAIL {c.structure} {c.theorem}: {json.dumps(c.witness, sort_keys=True)}")
        for d in self.discrepancies:
            lines.append(
                f"  DISCREPANCY {d.structure}: claim {json.dumps(d.claim, sort_keys=True)}"
                f" expected {d.expected}, computed {d.computed}"
            )
        return "\n".join(lines) + "\n"


def catalog_hash(entries: list[CatalogEntry]) -> str:
    h = hashlib.sha256()
    for e in sorted(entries, key=lambda e: e.structure.name):
        h.update(export_structure(e.structure).encode())
    return h.hexdigest()


# -- per-structure audit context ---------------------------------------------


class Quotient(NamedTuple):
    """A well-defined quotient of the audited structure whose tables verify,
    with the quotient expansions the registry induces; its lattice is
    ``q.structure.lattice``."""

    q: QuotientStructure
    induced: dict  # base expansion name -> induced quotient expansion


class HomFixture(NamedTuple):
    """A homomorphism out of the audited structure with the (delta, gamma)
    pairs that make it expansion-compatible, in registry order, and the
    hyperideals the transfer checks move along it; gamma is an expansion on
    ``hom.target.lattice``."""

    tag: str
    hom: Homomorphism
    pairs: list  # (delta, gamma)
    preimages: dict  # proper target ideal -> preimage, when injective
    images: dict  # proper source ideal over the kernel -> image, when surjective


class StructureContext:
    """Everything the theorem checks need about one catalog entry, with the
    verdicts they share computed once."""

    def __init__(self, entry: CatalogEntry, catalog: list[CatalogEntry], k_max: int):
        self.entry = entry
        self.catalog = catalog
        self.k_max = k_max
        self.S: FiniteStructure = entry.structure
        self._verdicts: dict = {}
        self._composed: dict = {}

    @cached_property
    def registry(self) -> dict:
        return self.S.lattice.registry

    @cached_property
    def jac(self) -> frozenset:
        return self.S.lattice.jacobson.members

    @cached_property
    def top(self) -> frozenset:
        return frozenset(self.S.carrier)

    @cached_property
    def proper(self) -> tuple[frozenset, ...]:
        return tuple(i.members for i in self.S.lattice.proper())

    @cached_property
    def refused(self) -> Optional[str]:
        """The message of the ``CapExceeded`` that refused ``S.lattice``, else
        None; read once, so a refused lattice is not built again per cell."""
        try:
            self.S.lattice
        except CapExceeded as e:
            return str(e)
        return None

    def verdict(self, row: str, Q: frozenset, delta=None, k=None, S=None):
        """``PREDICATES[row]``, or one of the ``_FORMS``, on Q in ``S`` (the
        audited structure by default), with the expansion and k the row
        takes.  A row reads its expansion only through delta(Q), so the
        result is kept under delta(Q) and a witness found for another
        expansion is returned renamed; a Q outside the lattice is IMPROPER
        whatever the expansion, whose table holds no delta(Q) for it."""
        S = self.S if S is None else S
        moved = None if delta is None else delta.table.get(Q)
        key = (S.lattice, row, Q, moved, k)
        res = self._verdicts.get(key)
        if res is None:
            evaluate = PREDICATES[row].evaluate if row in PREDICATES else _FORMS[row]
            res = self._verdicts[key] = evaluate(S, Q, delta, k)
        elif moved is not None and getattr(res, "witness", None) and res.witness.delta != delta.name:
            res = replace(res, witness=replace(res.witness, delta=delta.name))
        return res

    @cached_property
    def principals(self) -> list[frozenset]:
        """The proper principal hyperideals, one per carrier element."""
        ideals = (principal_ideal(self.S, x).ideal for x in self.S.carrier)
        return [p.members for p in ideals if p.proper]

    def composed(self, gamma, delta):
        """gamma o delta of two registered expansions, built once per pair."""
        key = gamma.name, delta.name
        if key not in self._composed:
            self._composed[key] = compose_expansions(gamma, delta)
        return self._composed[key]

    @cached_property
    def preserves_meets(self) -> dict:
        """Per registered expansion name: whether it preserves intersections."""
        return {n: preserves_intersections(self.S.lattice, d) for n, d in self.registry.items()}

    def radical(self, Q: frozenset) -> frozenset:
        """The radical of a lattice member, read from the delta1 expansion."""
        return self.registry["delta1"](Q)

    @cached_property
    def quotients(self) -> list[Quotient]:
        """The well-defined quotient by each proper hyperideal whose tables
        verify and that has a scalar identity, with the quotient expansions
        the registry induces: the only quotients T20, T21 and T27 read."""
        out = []
        for ideal in self.S.lattice.proper():
            res = quotient(self.S, ideal.members)
            if res.ok and res.axiom_report.ok and res.quotient.structure.one is not None:
                qs = res.quotient
                induced = {name: quotient_expansion(qs, d) for name, d in self.registry.items()}
                out.append(Quotient(qs, induced))
        return out

    @cached_property
    def hom_fixtures(self) -> list[HomFixture]:
        """One record per homomorphism out of the structure (the identity,
        the projections onto ``quotients``, monomorphisms into small verified
        catalog structures with a scalar identity) that some registered
        (delta, gamma) pair makes expansion-compatible, with every such pair.
        Only the identity's target, S itself, may lack a scalar identity."""
        S = self.S
        # (tag, hom, induced expansions)
        homs = [("identity", identity_hom(S), {})]
        for quot in self.quotients:
            tag = f"projection/{{{','.join(S.labels_of(quot.q.modulus))}}}"
            homs.append((tag, projection_hom(quot.q), quot.induced))
        for other in self.catalog if S.size <= MONO_FIXTURE_MAX_ORDER else ():
            T = other.structure
            if other.verified and (T.m, T.n) == (S.m, S.n) and T.size <= MONO_FIXTURE_MAX_ORDER and T.one is not None:
                for h in enumerate_homomorphisms(S, T, injective_only=True):
                    homs.append((f"mono->{T.name}", h, {}))
        fixtures = []
        for tag, h, induced in homs:
            tl = h.target.lattice
            pre = {I.members: h.preimage(I.members) for I in tl}
            if not all(p in S.lattice for p in pre.values()):
                continue  # no expansion is defined on such a preimage
            # (delta, gamma) is compatible iff delta(h^-1(I)) == h^-1(gamma(I))
            # for every target hyperideal I: one side per delta, one per gamma
            lhs = {name: [delta(p) for p in pre.values()] for name, delta in self.registry.items()}

            # every gamma maps lattice members to members, all of them in pre
            def rhs(gamma):
                return [pre[gamma(I)] for I in pre]

            # a projection pairs every base expansion with its induced
            # quotient expansion first
            pairs = [(self.registry[n], dq) for n, dq in induced.items() if lhs[n] == rhs(dq)]
            gammas = [(gamma, rhs(gamma)) for gamma in tl.registry.values()]
            pairs += [
                (self.registry[n], gamma)
                for n, side in lhs.items()
                for gamma, other in gammas
                if side == other
            ]
            if not pairs:
                continue
            preimages = {I.members: pre[I.members] for I in tl.proper()} if h.injective else {}
            ker = kernel(h)
            images = {Q: h.image(Q) for Q in self.proper if ker <= Q} if h.surjective else {}
            fixtures.append(HomFixture(tag, h, pairs, preimages, images))
        return fixtures


# -- theorem checks ----------------------------------------------------------


def _wit(ctx: StructureContext, **kw) -> dict:
    """JSON-able witness with element ids replaced by labels."""
    S = ctx.S
    out = {}
    for key, value in kw.items():
        if isinstance(value, frozenset):
            out[key] = list(S.labels_of(value))
        elif isinstance(value, tuple) and all(isinstance(v, int) for v in value):
            out[key] = [S.labels[v] for v in value]
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class Implication:
    """One theorem: every instance of the domain that satisfies the
    hypothesis satisfies the conclusion (see the module docstring)."""

    tid: str
    statement: str
    needs_identity: bool
    domain: Callable[[StructureContext], Iterable[tuple]]
    hypothesis: Callable[..., object]
    conclusion: Callable[..., Optional[dict]]
    gate: Callable[[StructureContext], Optional[str]] = lambda ctx: None
    # (status, checked, reason or witness) of a context: ``evaluate`` unless
    # a wrapper takes its place through ``dataclasses.replace(check, run=...)``
    run: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "run", self.run or self.evaluate)

    def evaluate(self, ctx: StructureContext):
        """The runner; each domain instance counts against the work budget."""
        reason = self.gate(ctx)
        if reason:
            return SKIP, 0, reason
        checked = 0
        for seen, inst in enumerate(self.domain(ctx), 1):
            if seen > core.WORK_BUDGET:
                Meter(f"{self.tid} on {ctx.S.name}: theorem instances").spend(seen)
            if self.hypothesis(ctx, *inst):
                checked += 1
                bad = self.conclusion(ctx, *inst)
                if bad is not None:
                    return FAIL, checked, _wit(ctx, **bad)
        return PASS, checked, None


def _always(ctx, *inst) -> bool:
    return True


def _no_proper(ctx) -> Optional[str]:
    # a one-element structure has no proper hyperideal to witness either
    # side of a locality equivalence or of a transfer
    return None if ctx.proper else "no proper hyperideals"


def _proper(ctx) -> Iterable[tuple]:
    return ((q,) for q in ctx.proper)


def _cases(ctx) -> Iterable[tuple]:
    """(Q, delta) over proper ideals, then registered expansions."""
    return ((q, delta) for q in ctx.proper for delta in ctx.registry.values())


def _agree(context: dict, **sides: bool) -> Optional[dict]:
    """None when every side of an equivalence agrees, else the witness."""
    return None if len(set(sides.values())) == 1 else {**context, **sides}


def _absorbing_fails(ctx, Q, expansion, degree, **context) -> Optional[dict]:
    """The witness when Q is not (degree,n)-absorbing delta-J, else None."""
    res = ctx.verdict("absorbing", Q, expansion, degree)
    return dict(context, witness=res.witness.as_dict()) if res.verdict is Verdict.FALSE else None


def _local_iff_all_j(ctx) -> Optional[dict]:
    bad = next((q for q in ctx.proper if not ctx.verdict("J", q)), None)
    local = is_local(ctx.S)
    return _agree(dict(ideal=bad or frozenset()), local=local, all_proper_are_j=bad is None)


def _meet_is_j(ctx, a, b) -> Optional[dict]:
    if a & b not in ctx.S.lattice:
        return dict(first=a, second=b)
    return None if ctx.verdict("J", a & b) else dict(first=a, second=b, meet=a & b)


def _residual_is_j(ctx, q, T) -> Optional[dict]:
    u = residual(ctx.S, q, T)
    if is_hyperideal(ctx.S, u).ok and u != ctx.top and ctx.verdict("J", u):
        return None
    return dict(ideal=q, subset=T, residual=u)


def _is_prime(ctx, q) -> Optional[dict]:
    ok, args = prime_witness(ctx.S, q)
    return None if ok else dict(ideal=q, args=args)


def _jacobson_prime(ctx) -> Optional[str]:
    if ctx.jac == ctx.top:
        return "jacobson radical is the whole carrier"
    return None if prime_witness(ctx.S, ctx.jac)[0] else "jacobson radical is not prime"


def _top_j(ctx, q) -> Optional[dict]:
    # the first instance is the radical itself, the others lie above it
    if q != ctx.jac:
        return dict(ideal=q, reason="j-hyperideal above the radical")
    return None if ctx.verdict("J", q) else dict(ideal=q, reason="radical not a j-hyperideal")


def _sandwiches(ctx) -> Iterable[tuple]:
    for q1 in ctx.proper:
        for q2 in (q for q in ctx.proper if q1 <= q):
            for q3 in (q for q in ctx.proper if q2 <= q):
                for delta in ctx.registry.values():
                    yield q1, q2, q3, delta


def _meets(ctx) -> Iterable[tuple]:
    # the first instance is the leading check that delta1 preserves meets
    yield ctx.registry["delta1"], None, None
    for delta in ctx.registry.values():
        if ctx.preserves_meets[delta.name]:
            for a, b in product(ctx.proper, repeat=2):
                yield delta, a, b


def _meet_is_delta_j(ctx, delta, a, b) -> Optional[dict]:
    if a is None:
        preserves = ctx.preserves_meets[delta.name]
        return None if preserves else dict(reason="delta1 does not preserve intersections")
    if ctx.verdict("delta-J", a & b, delta):
        return None
    return dict(first=a, second=b, delta=delta.name)


def _maximal_relative_drops(S, Q, delta, k) -> bool:
    # the drop clause, triggered outside the intersection of the maximal
    # hyperideals over Q
    m_q = S.lattice.meet(m for m in S.lattice.maximal if Q <= m.members)
    return DROP.scan(S, Q, m_q, delta(Q)) is None


# the forms that T04, T15 and T16 compare with the delta-J row: functions of
# (Q, delta(Q)) like the rows of ``PREDICATES``, kept in the same memo
_FORMS = {
    "ideal-form": lambda S, Q, delta, k: delta_j_ideal_form(S, Q, delta),
    "mixed-form": lambda S, Q, delta, k: delta_j_mixed_form(S, Q, delta),
    "maximal-drops": _maximal_relative_drops,
}


def _local_iff_delta_j(ctx, delta) -> Optional[dict]:
    return _agree(
        dict(delta=delta.name),
        local=is_local(ctx.S),
        principal_all=all(ctx.verdict("delta-J", p, delta) for p in ctx.principals),
        proper_all=all(ctx.verdict("delta-J", q, delta) for q in ctx.proper),
    )


def _transfers(ctx, row, ks) -> Iterable[tuple]:
    """(fixture, delta, gamma, row, k, side, Q, mapped): per fixture and per
    compatible pair, the target ideals pulled back along a monomorphism,
    then the source ideals over the kernel pushed along an epimorphism, each
    with where it lands; ``row`` is the predicate that transfers.  Every
    target has a scalar identity: the identity fixture's target is S, which
    the ``needs_identity`` gate of T20 and T27 guarantees has one."""
    for fix in ctx.hom_fixtures:
        for delta, gamma in fix.pairs:
            for k in ks:
                for Q, mapped in fix.preimages.items():
                    yield fix, delta, gamma, row, k, "preimage", Q, mapped
                for Q, mapped in fix.images.items():
                    yield fix, delta, gamma, row, k, "image", Q, mapped


def _transfer_hypothesis(ctx, fix, delta, gamma, row, k, side, Q, mapped):
    if side == "preimage":
        return ctx.verdict(row, Q, gamma, k, fix.hom.target)
    return ctx.verdict(row, Q, delta, k)


def _transfer_holds(ctx, fix, delta, gamma, row, k, side, Q, mapped) -> Optional[dict]:
    T = fix.hom.target
    R, expansion = (ctx.S, delta) if side == "preimage" else (T, gamma)
    # a preimage or image is a subset of its carrier: proper when smaller
    res = None
    if len(mapped) < R.size and mapped in R.lattice:
        res = ctx.verdict(row, mapped, expansion, k, R)
        # delta-J must hold; an absorbing verdict fails only when it is FALSE
        holds = bool(res) if k is None else res.verdict is not Verdict.FALSE
        if holds:
            return None
    wit = dict(fixture=fix.tag) if k is None else dict(fixture=fix.tag, k=k)
    if side == "preimage":
        if k is None:
            wit["target_ideal"] = sorted(T.labels_of(Q))
    else:
        wit["ideal"] = Q
    if res is None:
        return wit
    if side == "preimage":
        wit["preimage"] = mapped
    else:
        wit["image"] = sorted(T.labels_of(mapped))
    return wit if k is None else dict(wit, witness=res.witness.as_dict())


def _quotient_ideals(ctx) -> Iterable[tuple]:
    for quot in ctx.quotients:
        for delta in ctx.registry.values():
            for big in ctx.proper:
                if quot.q.modulus <= big:
                    yield quot, delta, big


def _quotient_is_delta_j(ctx, quot, delta, big) -> Optional[dict]:
    Qs = quot.q.structure
    img = quot.q.project(big)
    wit = dict(modulus=quot.q.modulus, ideal=big, delta=delta.name)
    if img == frozenset(Qs.carrier) or img not in Qs.lattice:
        return wit
    if ctx.verdict("delta-J", img, quot.induced[delta.name], S=Qs):
        return None
    return dict(wit, quotient_ideal=sorted(Qs.labels_of(img)))


def _radical_absorbing(ctx, q, delta, k) -> Optional[dict]:
    rad = ctx.radical(q)
    wit = dict(ideal=q, radical=rad, delta=delta.name, k=k)
    return wit if rad == ctx.top else _absorbing_fails(ctx, rad, delta, k, **wit)


_IMPLICATIONS: list[Implication] = [
    Implication(
        "T01", "J-hyperideals sit inside the Jacobson radical", True, _proper,
        lambda ctx, q: ctx.verdict("J", q),
        lambda ctx, q: None if q <= ctx.jac else dict(ideal=q, jacobson=ctx.jac),
    ),
    Implication(
        "T02", "local iff every proper hyperideal is J", True,
        lambda ctx: [()], _always, _local_iff_all_j, _no_proper,
    ),
    Implication(
        "T03", "J-hyperideals are intersection-closed", True,
        lambda ctx: product(ctx.proper, repeat=2),
        lambda ctx, a, b: ctx.verdict("J", a) and ctx.verdict("J", b),
        _meet_is_j,
    ),
    Implication(
        "T04", "J iff residual-fixed outside J(R) iff ideal-tuple form", True, _proper, _always,
        lambda ctx, q: _agree(
            dict(ideal=q),
            j=bool(ctx.verdict("J", q)),
            residual_fixed=all(
                residual(ctx.S, q, {x}) == q for x in ctx.S.carrier if x not in ctx.jac
            ),
            tuple_form=ctx.verdict("ideal-form", q, ctx.registry["delta0"]),
        ),
    ),
    Implication(
        "T05", "J iff residuals outside Q land in J(R)", True, _proper, _always,
        lambda ctx, q: _agree(
            dict(ideal=q),
            j=bool(ctx.verdict("J", q)),
            residuals_in_jacobson=all(
                residual(ctx.S, q, {x}) <= ctx.jac for x in ctx.S.carrier if x not in q
            ),
        ),
    ),
    Implication(
        "T06", "residuals of J-hyperideals are J-hyperideals", True,
        lambda ctx: (
            (q, frozenset(subset))
            for q in ctx.proper
            for r in range(1, ctx.S.size + 1)
            for subset in combinations(ctx.S.carrier, r)
        ),
        lambda ctx, q, T: ctx.verdict("J", q) and not T <= q,
        _residual_is_j,
    ),
    Implication(
        "T07", "maximal J-hyperideals are prime", True, _proper,
        lambda ctx, q: (
            ctx.verdict("J", q) and not any(q < o for o in ctx.proper if ctx.verdict("J", o))
        ),
        _is_prime,
    ),
    Implication(
        "T08", "a prime Jacobson radical is a top J-hyperideal", True,
        lambda ctx: [(ctx.jac,)] + [(q,) for q in ctx.proper if ctx.jac < q],
        lambda ctx, q: q == ctx.jac or ctx.verdict("J", q),
        _top_j,
        _jacobson_prime,
    ),
    Implication(
        "T09", "delta(Q) J forces Q delta-J", True, _cases,
        lambda ctx, q, delta: delta(q) != ctx.top and ctx.verdict("J", delta(q)),
        lambda ctx, q, delta: (
            None if ctx.verdict("delta-J", q, delta) else dict(ideal=q, delta=delta.name)
        ),
    ),
    Implication(
        "T10", "delta1-J forces a J radical", True, _proper,
        lambda ctx, q: ctx.verdict("delta-J", q, ctx.registry["delta1"]),
        lambda ctx, q: (
            dict(ideal=q, radical=ctx.radical(q))
            if ctx.radical(q) == ctx.top or not ctx.verdict("J", ctx.radical(q))
            else None
        ),
    ),
    Implication(
        "T11", "delta(Q) gamma-J forces Q (gamma o delta)-J", True,
        lambda ctx: (c + (g,) for c in _cases(ctx) for g in ctx.registry.values()),
        lambda ctx, q, delta, gamma: (
            delta(q) != ctx.top and ctx.verdict("delta-J", delta(q), gamma)
        ),
        lambda ctx, q, delta, gamma: (
            None
            if ctx.verdict("delta-J", q, ctx.composed(gamma, delta))
            else dict(ideal=q, delta=delta.name, gamma=gamma.name)
        ),
    ),
    Implication(
        "T12", "sandwich between delta-equal delta-J ideals", True, _sandwiches,
        lambda ctx, q1, q2, q3, delta: delta(q1) == delta(q3) and ctx.verdict("delta-J", q3, delta),
        lambda ctx, q1, q2, q3, delta: (
            None
            if ctx.verdict("delta-J", q2, delta)
            else dict(q1=q1, q2=q2, q3=q3, delta=delta.name)
        ),
    ),
    Implication(
        "T13", "radical of delta-J is delta-J (gated)", True, _cases,
        lambda ctx, q, delta: (
            ctx.verdict("delta-J", q, delta) and ctx.radical(delta(q)) <= delta(ctx.radical(q))
        ),
        # an improper radical cannot be a delta-J hyperideal
        lambda ctx, q, delta: (
            dict(ideal=q, delta=delta.name, radical=ctx.radical(q))
            if ctx.radical(q) == ctx.top or not ctx.verdict("delta-J", ctx.radical(q), delta)
            else None
        ),
    ),
    Implication(
        "T14", "intersection preservation and delta-J meets", True, _meets,
        lambda ctx, delta, a, b: (
            a is None or (ctx.verdict("delta-J", a, delta) and ctx.verdict("delta-J", b, delta))
        ),
        _meet_is_delta_j,
    ),
    Implication(
        "T15", "three delta-J forms agree", True, _cases, _always,
        lambda ctx, q, delta: _agree(
            dict(ideal=q, delta=delta.name),
            elementwise=bool(ctx.verdict("delta-J", q, delta)),
            mixed_form=ctx.verdict("mixed-form", q, delta),
            tuple_form=ctx.verdict("ideal-form", q, delta),
        ),
    ),
    Implication(
        "T16", "delta-J iff inside J(R) with maximal-relative drops", True, _cases, _always,
        lambda ctx, q, delta: _agree(
            dict(ideal=q, delta=delta.name),
            lhs=bool(ctx.verdict("delta-J", q, delta)),
            rhs=q <= ctx.jac and ctx.verdict("maximal-drops", q, delta),
        ),
    ),
    Implication(
        "T17", "local iff principal delta-J iff all delta-J", True,
        lambda ctx: ((d,) for d in ctx.registry.values()), _always, _local_iff_delta_j, _no_proper,
    ),
    Implication(
        "T18", "for delta-primary: delta-J iff inside J(R)", True, _cases,
        lambda ctx, q, delta: ctx.verdict("delta-primary", q, delta),
        lambda ctx, q, delta: _agree(
            dict(ideal=q, delta=delta.name),
            lhs=bool(ctx.verdict("delta-J", q, delta)),
            rhs=q <= ctx.jac,
        ),
    ),
    Implication(
        "T19", "for maximal: delta-J iff equal to J(R)", True, _cases,
        lambda ctx, q, delta: ctx.verdict("maximal", q),
        lambda ctx, q, delta: _agree(
            dict(ideal=q, delta=delta.name),
            lhs=bool(ctx.verdict("delta-J", q, delta)),
            rhs=q == ctx.jac,
        ),
    ),
    # transfers along expansion-compatible homomorphisms: preimages along
    # monomorphisms, images along epimorphisms whose kernel lies in Q
    Implication(
        "T20", "delta-J transfers along hom fixtures", True,
        lambda ctx: _transfers(ctx, "delta-J", [None]), _transfer_hypothesis, _transfer_holds, _no_proper,
    ),
    Implication(
        "T21", "delta-J passes to quotients as induced-expansion J", True, _quotient_ideals,
        lambda ctx, quot, delta, big: ctx.verdict("delta-J", big, delta),
        _quotient_is_delta_j,
    ),
    Implication(
        "T22", "delta-J forces (2,n)-absorbing delta-J", True, _cases,
        lambda ctx, q, delta: ctx.verdict("delta-J", q, delta),
        lambda ctx, q, delta: _absorbing_fails(ctx, q, delta, 2, ideal=q, delta=delta.name),
    ),
    # the successor step of the absorbing chain, audited in place of the
    # s>n phrasing
    Implication(
        "T23", "(k,n)-absorbing forces (k+1,n)-absorbing", False,
        lambda ctx: (c + (k,) for c in _cases(ctx) for k in range(2, ctx.k_max)),
        lambda ctx, q, delta, k: ctx.verdict("absorbing", q, delta, k),
        lambda ctx, q, delta, k: _absorbing_fails(
            ctx, q, delta, k + 1, ideal=q, delta=delta.name, k=k
        ),
    ),
    # the radical's defining framework assumes a scalar identity
    Implication(
        "T24", "absorbing passes to radicals", True,
        lambda ctx: (
            (q, delta, k)
            for q in ctx.proper
            for k in range(2, ctx.k_max + 1)
            for delta in ctx.registry.values()
        ),
        lambda ctx, q, delta, k: ctx.verdict("absorbing", q, ctx.registry["delta0"], k),
        _radical_absorbing,
    ),
    Implication(
        "T25", "delta(Q) (2,n)-absorbing forces Q (3,n)-absorbing delta-J", False, _cases,
        lambda ctx, q, delta: (
            delta(q) != ctx.top and ctx.verdict("absorbing", delta(q), ctx.registry["delta0"], 2)
        ),
        lambda ctx, q, delta: _absorbing_fails(ctx, q, delta, 3, ideal=q, delta=delta.name),
    ),
    Implication(
        "T26", "delta(Q) (k+1,n)-absorbing delta-J forces the same for Q", False,
        lambda ctx: (c + (k,) for c in _cases(ctx) for k in range(2, ctx.k_max + 1)),
        lambda ctx, q, delta, k: (
            delta(q) != ctx.top and ctx.verdict("absorbing", delta(q), delta, k)
        ),
        lambda ctx, q, delta, k: _absorbing_fails(ctx, q, delta, k, ideal=q, delta=delta.name, k=k),
    ),
    Implication(
        "T27", "absorbing transfers along hom fixtures", True,
        lambda ctx: _transfers(ctx, "absorbing", range(2, ctx.k_max + 1)),
        _transfer_hypothesis, _transfer_holds, _no_proper,
    ),
]

THEOREMS: dict[str, Implication] = {i.tid: i for i in _IMPLICATIONS}


def _claim_finding(entry: CatalogEntry, claim: Claim) -> Optional[tuple]:
    """(expected, computed, witness) where the computed verdicts contradict
    a shipped claim, else None."""
    S = entry.structure
    if claim.kind in ("krasner-axioms", "canonical-hypergroup"):
        failed, expected = entry.report.failed(), "all axioms pass"
        if claim.kind == "canonical-hypergroup":
            # verify_krasner's report holds verify_canonical_hypergroup's checks
            hypergroup = {c.name for c in core.HYPERGROUP_AXIOMS}
            failed, expected = [c for c in failed if c.axiom in hypergroup], "hypergroup axioms pass"
        return (expected, f"{failed[0].axiom} fails", failed[0].as_dict()) if failed else None
    if claim.kind not in ("hyperideal", "j-hyperideal"):
        return "known claim kind", "unknown", None
    members = frozenset(S.index_of(l) for l in claim.subset)
    check = is_hyperideal(S, members)
    clause = None if check.ok else {"clause": check.clause, "witness": _jsonable(check.witness)}
    if claim.kind == "hyperideal":
        if check.ok:
            return None
        return "subset is a hyperideal", f"clause {check.clause} fails", clause
    if not check.ok or members == frozenset(S.carrier):
        return "J-hyperideal", Verdict.IMPROPER.value, clause
    result = is_j_hyperideal(S, members, S.lattice)
    if result.verdict is Verdict.TRUE:
        return None
    witness = result.witness.as_dict() if result.witness else None
    return "J-hyperideal", result.verdict.value, witness


def _claim_discrepancies(entry: CatalogEntry) -> list[Discrepancy]:
    found = [(c, _claim_finding(entry, c)) for c in entry.claims]
    return [Discrepancy(entry.structure.name, c.as_dict(), *f) for c, f in found if f]


def _cell(ctx: StructureContext, tid: str) -> AuditCell:
    """One theorem on one entry, behind the verification and identity gates;
    a check that would pass the work budget, or that needs a lattice the
    budget refused, is SKIPped with its message."""
    entry, name = ctx.entry, ctx.S.name
    if not entry.verified:
        failed = entry.report.failed()[0].axiom
        return AuditCell(name, tid, SKIP, reason=f"structure fails verification ({failed})")
    check = THEOREMS[tid]
    if check.needs_identity and ctx.S.one is None:
        return AuditCell(name, tid, SKIP, reason="no scalar identity")
    if ctx.refused:
        return AuditCell(name, tid, SKIP, reason=ctx.refused)
    try:
        status, checked, extra = check.run(ctx)
    except CapExceeded as e:
        status, checked, extra = SKIP, 0, str(e)
    if status == SKIP:
        return AuditCell(name, tid, SKIP, reason=extra)
    return AuditCell(name, tid, status, checked=checked, witness=extra)


def replay_cell(entries: list[CatalogEntry], cell: AuditCell, k_max: int = 3) -> bool:
    """Re-run one audit cell from scratch; True iff the recorded outcome
    (status and, for failures, the exact witness) reproduces."""
    ordered = sorted(entries, key=lambda e: e.structure.name)
    entry = next((e for e in ordered if e.structure.name == cell.structure), None)
    if entry is None:
        raise KeyError(f"unknown structure: {cell.structure}")
    again = _cell(StructureContext(entry, ordered, k_max), cell.theorem)
    if cell.status == FAIL:
        return again.status == FAIL and again.witness == cell.witness
    return again.status == cell.status


def run_audit(
    entries: list[CatalogEntry],
    theorem_ids: Optional[list[str]] = None,
    k_max: int = 3,
) -> AuditReport:
    """Evaluate the selected theorems over every catalog entry."""
    ids = theorem_ids or sorted(THEOREMS)
    unknown = [t for t in ids if t not in THEOREMS]
    if unknown:
        raise KeyError(f"unknown theorem id(s): {', '.join(unknown)}")
    report = AuditReport(__version__, catalog_hash(entries), k_max)
    ordered = sorted(entries, key=lambda e: e.structure.name)
    for entry in ordered:
        report.discrepancies.extend(_claim_discrepancies(entry))
    for entry in ordered:
        ctx = StructureContext(entry, ordered, k_max)
        report.cells.extend(_cell(ctx, tid) for tid in ids)
    return report
