"""Executable theorem registry and the catalog audit runner.

Each registered check T01..T27 turns one implication about J-family
hyperideals into an exhaustive scan over a structure's lattice (and, for the
transfer checks, over generated homomorphism fixtures).  A cell is SKIPped
with a reason when the structure fails the check's applicability gates
(unverified tables, missing scalar identity, ...), PASSes when every
hypothesis-satisfying instance also satisfies the conclusion, and otherwise
FAILs carrying a replayable instance witness.

Built-in claims are compared against computed verdicts and mismatches are
emitted as discrepancy records: auditing the claims is part of the job, so a
mismatch is a finding, not an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import __version__
from .catalog import CatalogEntry
from .classifiers import (
    Verdict,
    compose_expansions,
    is_absorbing_delta_j,
    is_delta_j,
    is_delta_primary,
    is_j_hyperideal,
    preserves_intersections,
)
from .core import FiniteStructure, _jsonable, verify_canonical_hypergroup
from .fileformat import export_structure
from .ideals import (
    IdealLattice,
    _set_product,
    is_hyperideal,
    is_local,
    prime_witness,
    principal_ideal,
    radical_by_primes,
    residual,
)
from .morphology import (
    Homomorphism,
    enumerate_homomorphisms,
    identity_hom,
    is_delta_gamma_hom,
    kernel,
    projection_hom,
    quotient,
    quotient_expansion,
)

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"
MONO_FIXTURE_MAX_ORDER = 3


@dataclass
class AuditCell:
    structure: str
    theorem: str
    status: str
    checked: int = 0
    reason: str = ""
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "theorem": self.theorem,
            "status": self.status,
            "checked": self.checked,
            "reason": self.reason,
            "witness": self.witness,
        }


@dataclass
class Discrepancy:
    structure: str
    claim: dict
    expected: str
    computed: str
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "witness": self.witness,
        }


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
        lines = [
            json.dumps(
                {
                    "record": "meta",
                    "version": self.version,
                    "catalog_hash": self.catalog_hash,
                    "k_max": self.k_max,
                },
                sort_keys=True,
            )
        ]
        for c in self.cells:
            lines.append(json.dumps({"record": "cell", **c.as_dict()}, sort_keys=True))
        for d in self.discrepancies:
            lines.append(
                json.dumps({"record": "discrepancy", **d.as_dict()}, sort_keys=True)
            )
        counts = self.counts()
        lines.append(
            json.dumps(
                {
                    "record": "summary",
                    "pass": counts[PASS],
                    "fail": counts[FAIL],
                    "skip": counts[SKIP],
                    "discrepancies": len(self.discrepancies),
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"

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


class StructureContext:
    """Everything the theorem checks need about one catalog entry."""

    def __init__(self, entry: CatalogEntry, catalog: list[CatalogEntry], k_max: int):
        self.entry = entry
        self.catalog = catalog
        self.k_max = k_max
        self.S: FiniteStructure = entry.structure
        self._fixtures: Optional[list] = None

    @property
    def lattice(self) -> IdealLattice:
        return self.entry.lattice()

    @property
    def registry(self) -> dict:
        return self.entry.registry()

    @property
    def jac(self) -> frozenset:
        return self.lattice.jacobson.members

    def proper_ideals(self):
        return self.lattice.proper()

    def hom_fixtures(self) -> list[dict]:
        """Identity, quotient projections and small monomorphisms, each with
        every registered (delta, gamma) pair that makes it an expansion-
        compatible homomorphism."""
        if self._fixtures is not None:
            return self._fixtures
        fixtures = []
        S = self.S
        homs: list[tuple[str, Homomorphism, object]] = [
            ("identity", identity_hom(S), None)
        ]
        for ideal in self.lattice:
            q = quotient(S, ideal.members)
            if q.ok and q.axiom_report.ok:
                homs.append((f"projection/{{{','.join(ideal.labels())}}}", projection_hom(q.quotient), q.quotient))
        if S.size <= MONO_FIXTURE_MAX_ORDER:
            for other in self.catalog:
                T = other.structure
                if (
                    other.verified
                    and (T.m, T.n) == (S.m, S.n)
                    and T.size <= MONO_FIXTURE_MAX_ORDER
                ):
                    for h in enumerate_homomorphisms(S, T, injective_only=True):
                        homs.append((f"mono->{T.name}", h, None))
        from .classifiers import standard_registry
        from .ideals import enumerate_hyperideals

        for tag, h, qstruct in homs:
            target = h.target
            if target is S:
                target_lattice, target_registry = self.lattice, self.registry
            else:
                target_lattice = enumerate_hyperideals(target)
                target_registry = standard_registry(target, target_lattice)
            if qstruct is not None:
                # the projection pairs every base expansion with its induced
                # quotient expansion
                for name, delta in self.registry.items():
                    dq = quotient_expansion(qstruct, delta, self.lattice, target_lattice)
                    ok, _ = is_delta_gamma_hom(h, delta, dq, self.lattice, target_lattice)
                    if ok:
                        fixtures.append(
                            {
                                "tag": tag,
                                "hom": h,
                                "delta": delta,
                                "gamma": dq,
                                "target_lattice": target_lattice,
                                "target_registry": target_registry,
                            }
                        )
            pairs = [
                (d, g)
                for d in self.registry.values()
                for g in target_registry.values()
            ]
            for delta, gamma in pairs:
                ok, _ = is_delta_gamma_hom(h, delta, gamma, self.lattice, target_lattice)
                if ok:
                    fixtures.append(
                        {
                            "tag": tag,
                            "hom": h,
                            "delta": delta,
                            "gamma": gamma,
                            "target_lattice": target_lattice,
                            "target_registry": target_registry,
                        }
                    )
        self._fixtures = fixtures
        return fixtures


# -- theorem checks ----------------------------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    tid: str
    statement: str
    needs_identity: bool
    run: Callable


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


def _bool_of(res) -> bool:
    return res.verdict is Verdict.TRUE


def _t01(ctx: StructureContext):
    # a J-hyperideal always sits inside the Jacobson radical
    checked = 0
    for q in ctx.proper_ideals():
        if _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice)):
            checked += 1
            if not q.members <= ctx.jac:
                return FAIL, checked, _wit(ctx, ideal=q.members, jacobson=ctx.jac)
    return PASS, checked, None


def _t02(ctx: StructureContext):
    # local structure <=> every proper hyperideal is a J-hyperideal;
    # degenerate one-element structures have no proper hyperideal to witness
    # either side, so the equivalence is out of scope there
    if not ctx.proper_ideals():
        return SKIP, 0, "no proper hyperideals"
    local = is_local(ctx.S, ctx.lattice)
    all_j = all(
        _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
        for q in ctx.proper_ideals()
    )
    if local != all_j:
        bad = next(
            (
                q
                for q in ctx.proper_ideals()
                if not _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
            ),
            None,
        )
        return FAIL, 1, _wit(
            ctx,
            local=local,
            all_proper_are_j=all_j,
            ideal=bad.members if bad else frozenset(),
        )
    return PASS, 1, None


def _t03(ctx: StructureContext):
    # J-hyperideals are closed under intersection
    checked = 0
    js = [
        q
        for q in ctx.proper_ideals()
        if _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
    ]
    for a in js:
        for b in js:
            meet = a.members & b.members
            checked += 1
            if meet not in ctx.lattice:
                return FAIL, checked, _wit(ctx, first=a.members, second=b.members)
            if not _bool_of(is_j_hyperideal(ctx.S, meet, ctx.lattice)):
                return FAIL, checked, _wit(ctx, first=a.members, second=b.members, meet=meet)
    return PASS, checked, None


def _residual_or_none(ctx, Q, T):
    return residual(ctx.S, Q, T)


def _t04(ctx: StructureContext):
    # three-way equivalence: J-hyperideal <=> fixed by every residual at
    # elements outside the Jacobson radical <=> ideal-tuple form
    checked = 0
    for q in ctx.proper_ideals():
        j = _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
        fixed = all(
            _residual_or_none(ctx, q.members, {x}) == q.members
            for x in ctx.S.carrier
            if x not in ctx.jac
        )
        subset_form = _ideal_tuple_form(ctx, q.members, ctx.jac, q.members)
        checked += 1
        if not (j == fixed == subset_form):
            return FAIL, checked, _wit(
                ctx, ideal=q.members, j=j, residual_fixed=fixed, tuple_form=subset_form
            )
    return PASS, checked, None


def _ideal_tuple_form(ctx: StructureContext, Q, trigger, target) -> bool:
    """For hyperideal tuples I_1..I_n with product inside Q: every I_i not
    inside ``trigger`` forces the identity-substituted product into
    ``target``."""
    from .core import multisets

    S = ctx.S
    pool = [i.members for i in ctx.lattice]
    one = S.one
    for combo in multisets(len(pool), S.n):
        sets = [pool[i] for i in combo]
        prod_set = _set_product(S, sets)
        if not prod_set <= Q:
            continue
        for slot in range(len(sets)):
            if sets[slot] <= trigger:
                continue
            rest = sets[:slot] + [frozenset({one})] + sets[slot + 1 :]
            if not _set_product(S, rest) <= target:
                return False
    return True


def _t05(ctx: StructureContext):
    # J-hyperideal <=> residuals at elements outside Q stay inside J(R)
    checked = 0
    for q in ctx.proper_ideals():
        j = _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
        cond = all(
            _residual_or_none(ctx, q.members, {x}) <= ctx.jac
            for x in ctx.S.carrier
            if x not in q.members
        )
        checked += 1
        if j != cond:
            return FAIL, checked, _wit(ctx, ideal=q.members, j=j, residuals_in_jacobson=cond)
    return PASS, checked, None


def _t06(ctx: StructureContext):
    # residual of a J-hyperideal at any subset not inside it is a J-hyperideal
    checked = 0
    S = ctx.S
    from itertools import combinations

    elems = list(S.carrier)
    for q in ctx.proper_ideals():
        if not _bool_of(is_j_hyperideal(S, q.members, ctx.lattice)):
            continue
        for r in range(1, len(elems) + 1):
            for combo in combinations(elems, r):
                T = frozenset(combo)
                if T <= q.members:
                    continue
                checked += 1
                u = residual(S, q.members, T)
                if not is_hyperideal(S, u).ok:
                    return FAIL, checked, _wit(ctx, ideal=q.members, subset=T, residual=u)
                if u == frozenset(S.carrier) or not _bool_of(
                    is_j_hyperideal(S, u, ctx.lattice)
                ):
                    return FAIL, checked, _wit(ctx, ideal=q.members, subset=T, residual=u)
    return PASS, checked, None


def _t07(ctx: StructureContext):
    # maximal members of the J-hyperideal family are prime
    js = [
        q
        for q in ctx.proper_ideals()
        if _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice))
    ]
    checked = 0
    for q in js:
        if any(q.members < other.members for other in js):
            continue
        checked += 1
        ok, w = prime_witness(ctx.S, q.members)
        if not ok:
            return FAIL, checked, _wit(ctx, ideal=q.members, args=w)
    return PASS, checked, None


def _t08(ctx: StructureContext):
    # a prime Jacobson radical is a J-hyperideal with nothing J above it
    jac = ctx.jac
    if jac == frozenset(ctx.S.carrier):
        return SKIP, 0, "jacobson radical is the whole carrier"
    ok, _ = prime_witness(ctx.S, jac)
    if not ok:
        return SKIP, 0, "jacobson radical is not prime"
    if not _bool_of(is_j_hyperideal(ctx.S, jac, ctx.lattice)):
        return FAIL, 1, _wit(ctx, ideal=jac, reason="radical not a j-hyperideal")
    for q in ctx.proper_ideals():
        if jac < q.members and _bool_of(is_j_hyperideal(ctx.S, q.members, ctx.lattice)):
            return FAIL, 1, _wit(ctx, ideal=q.members, reason="j-hyperideal above the radical")
    return PASS, 1, None


def _t09(ctx: StructureContext):
    # delta(Q) a J-hyperideal forces Q delta-J
    checked = 0
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            dq = delta(q.members)
            if dq == frozenset(ctx.S.carrier):
                continue
            if not _bool_of(is_j_hyperideal(ctx.S, dq, ctx.lattice)):
                continue
            checked += 1
            if not _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice)):
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name)
    return PASS, checked, None


def _t10(ctx: StructureContext):
    # a delta1-J hyperideal has a J-hyperideal radical
    delta1 = ctx.registry["delta1"]
    checked = 0
    for q in ctx.proper_ideals():
        if not _bool_of(is_delta_j(ctx.S, q.members, delta1, ctx.lattice)):
            continue
        checked += 1
        rad = radical_by_primes(ctx.S, q.members, ctx.lattice).members
        if rad == frozenset(ctx.S.carrier) or not _bool_of(
            is_j_hyperideal(ctx.S, rad, ctx.lattice)
        ):
            return FAIL, checked, _wit(ctx, ideal=q.members, radical=rad)
    return PASS, checked, None


def _t11(ctx: StructureContext):
    # delta(Q) gamma-J forces Q (gamma o delta)-J
    checked = 0
    for q in ctx.proper_ideals():
        for dname, delta in ctx.registry.items():
            dq = delta(q.members)
            if dq == frozenset(ctx.S.carrier):
                continue
            for gname, gamma in ctx.registry.items():
                if not _bool_of(is_delta_j(ctx.S, dq, gamma, ctx.lattice)):
                    continue
                checked += 1
                composed = compose_expansions(gamma, delta)
                if not _bool_of(is_delta_j(ctx.S, q.members, composed, ctx.lattice)):
                    return FAIL, checked, _wit(ctx, ideal=q.members, delta=dname, gamma=gname)
    return PASS, checked, None


def _t12(ctx: StructureContext):
    # sandwich: Q1 <= Q2 <= Q3, Q3 delta-J, delta(Q1)=delta(Q3) force Q2 delta-J
    checked = 0
    props = ctx.proper_ideals()
    for q1 in props:
        for q2 in props:
            if not q1.members <= q2.members:
                continue
            for q3 in props:
                if not q2.members <= q3.members:
                    continue
                for name, delta in ctx.registry.items():
                    if delta(q1.members) != delta(q3.members):
                        continue
                    if not _bool_of(is_delta_j(ctx.S, q3.members, delta, ctx.lattice)):
                        continue
                    checked += 1
                    if not _bool_of(is_delta_j(ctx.S, q2.members, delta, ctx.lattice)):
                        return FAIL, checked, _wit(
                            ctx, q1=q1.members, q2=q2.members, q3=q3.members, delta=name
                        )
    return PASS, checked, None


def _t13(ctx: StructureContext):
    # hypothesis-gated: delta-J plus radical(delta(Q)) <= delta(radical(Q))
    # force radical(Q) delta-J
    checked = 0
    S = ctx.S
    top = frozenset(S.carrier)
    for q in ctx.proper_ideals():
        rad = radical_by_primes(S, q.members, ctx.lattice).members
        for name, delta in ctx.registry.items():
            if not _bool_of(is_delta_j(S, q.members, delta, ctx.lattice)):
                continue
            rad_dq = radical_by_primes(S, delta(q.members), ctx.lattice).members
            if not rad_dq <= delta(rad):
                continue
            checked += 1
            # an improper radical cannot be a delta-J hyperideal
            if rad == top or not _bool_of(is_delta_j(S, rad, delta, ctx.lattice)):
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name, radical=rad)
    return PASS, checked, None


def _t14(ctx: StructureContext):
    # delta1 preserves intersections; intersection-preserving expansions
    # keep delta-J stable under pairwise intersection
    if not preserves_intersections(ctx.S, ctx.lattice, ctx.registry["delta1"]):
        return FAIL, 1, _wit(ctx, reason="delta1 does not preserve intersections")
    checked = 1
    for name, delta in ctx.registry.items():
        if not preserves_intersections(ctx.S, ctx.lattice, delta):
            continue
        js = [
            q
            for q in ctx.proper_ideals()
            if _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice))
        ]
        for a in js:
            for b in js:
                meet = a.members & b.members
                checked += 1
                if not _bool_of(is_delta_j(ctx.S, meet, delta, ctx.lattice)):
                    return FAIL, checked, _wit(
                        ctx, first=a.members, second=b.members, delta=name
                    )
    return PASS, checked, None


def _t15(ctx: StructureContext):
    # three forms of the delta-J property agree: elementwise, (n-1) ideals
    # plus one element, n ideals
    checked = 0
    S = ctx.S
    from .core import multisets
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            elem = _bool_of(is_delta_j(S, q.members, delta, ctx.lattice))
            mixed = _mixed_tuple_form(ctx, q.members, delta)
            tuples = _ideal_tuple_form(ctx, q.members, ctx.jac, delta(q.members))
            checked += 1
            if not (elem == mixed == tuples):
                return FAIL, checked, _wit(
                    ctx, ideal=q.members, delta=name, elementwise=elem,
                    mixed_form=mixed, tuple_form=tuples,
                )
    return PASS, checked, None


def _mixed_tuple_form(ctx: StructureContext, Q, delta) -> bool:
    from .core import multisets

    S = ctx.S
    pool = [i.members for i in ctx.lattice]
    one = S.one
    for combo in multisets(len(pool), S.n - 1):
        sets = [pool[i] for i in combo]
        for x in S.carrier:
            if not _set_product(S, sets + [frozenset({x})]) <= Q:
                continue
            if x in ctx.jac:
                continue
            if not _set_product(S, sets + [frozenset({one})]) <= delta(Q):
                return False
    return True


def _t16(ctx: StructureContext):
    # delta-J <=> inside J(R) and the drop condition relative to the
    # intersection of maximal hyperideals containing Q
    checked = 0
    S = ctx.S
    from .core import msort, multiset_minus, multisets

    for q in ctx.proper_ideals():
        over = [m.members for m in ctx.lattice.maximal if q.members <= m.members]
        m_q = frozenset(S.carrier)
        for m in over:
            m_q &= m
        for name, delta in ctx.registry.items():
            lhs = _bool_of(is_delta_j(S, q.members, delta, ctx.lattice))
            rhs = q.members <= ctx.jac
            if rhs:
                dq = delta(q.members)
                for key in multisets(S.size, S.n):
                    if S.mul[key] not in q.members:
                        continue
                    for v in sorted(set(key)):
                        if v in m_q:
                            continue
                        dropped = S.mul[msort(multiset_minus(key, (v,)) + (S.one,))]
                        if dropped not in dq:
                            rhs = False
                            break
                    if not rhs:
                        break
            checked += 1
            if lhs != rhs:
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name, lhs=lhs, rhs=rhs)
    return PASS, checked, None


def _t17(ctx: StructureContext):
    # local <=> every proper principal hyperideal is delta-J <=> every
    # proper hyperideal is delta-J; degenerate as in T02
    if not ctx.proper_ideals():
        return SKIP, 0, "no proper hyperideals"
    local = is_local(ctx.S, ctx.lattice)
    checked = 0
    for name, delta in ctx.registry.items():
        principals = []
        for x in ctx.S.carrier:
            p = principal_ideal(ctx.S, x, ctx.lattice)
            if p.ideal.proper:
                principals.append(p.ideal)
        all_principal = all(
            _bool_of(is_delta_j(ctx.S, p.members, delta, ctx.lattice)) for p in principals
        )
        all_proper = all(
            _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice))
            for q in ctx.proper_ideals()
        )
        checked += 1
        if not (local == all_principal == all_proper):
            return FAIL, checked, _wit(
                ctx, delta=name, local=local,
                principal_all=all_principal, proper_all=all_proper,
            )
    return PASS, checked, None


def _t18(ctx: StructureContext):
    # for delta-primary Q: delta-J <=> Q inside J(R)
    checked = 0
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            if not _bool_of(is_delta_primary(ctx.S, q.members, delta, ctx.lattice)):
                continue
            checked += 1
            lhs = _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice))
            rhs = q.members <= ctx.jac
            if lhs != rhs:
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name, lhs=lhs, rhs=rhs)
    return PASS, checked, None


def _t19(ctx: StructureContext):
    # for maximal Q: delta-J <=> Q equals J(R)
    checked = 0
    for q in ctx.lattice.maximal:
        for name, delta in ctx.registry.items():
            checked += 1
            lhs = _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice))
            rhs = q.members == ctx.jac
            if lhs != rhs:
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name, lhs=lhs, rhs=rhs)
    return PASS, checked, None


def _hom_applicable(fix) -> bool:
    t = fix["hom"].target
    return t.one is not None


def _t20(ctx: StructureContext):
    # transfer along expansion-compatible homomorphisms: preimages of
    # gamma-J hyperideals under monomorphisms are delta-J; images of delta-J
    # hyperideals under epimorphisms with small kernel are gamma-J
    if not ctx.proper_ideals():
        return SKIP, 0, "no proper hyperideals"
    checked = 0
    for fix in ctx.hom_fixtures():
        if not _hom_applicable(fix):
            continue
        h = fix["hom"]
        tl = fix["target_lattice"]
        delta, gamma = fix["delta"], fix["gamma"]
        if h.injective:
            for i2 in tl.proper():
                if not _bool_of(is_delta_j(h.target, i2.members, gamma, tl)):
                    continue
                pre = h.preimage(i2.members)
                checked += 1
                if pre == frozenset(h.source.carrier) or pre not in ctx.lattice:
                    return FAIL, checked, _wit(ctx, fixture=fix["tag"], target_ideal=sorted(i2.labels()))
                if not _bool_of(is_delta_j(h.source, pre, delta, ctx.lattice)):
                    return FAIL, checked, _wit(
                        ctx, fixture=fix["tag"], target_ideal=sorted(i2.labels()), preimage=pre
                    )
        if h.surjective:
            ker = kernel(h)
            for i1 in ctx.proper_ideals():
                if not ker <= i1.members:
                    continue
                if not _bool_of(is_delta_j(h.source, i1.members, delta, ctx.lattice)):
                    continue
                img = h.image(i1.members)
                checked += 1
                if img == frozenset(h.target.carrier) or img not in tl:
                    return FAIL, checked, _wit(ctx, fixture=fix["tag"], ideal=i1.members)
                if not _bool_of(is_delta_j(h.target, img, gamma, tl)):
                    return FAIL, checked, _wit(
                        ctx, fixture=fix["tag"], ideal=i1.members,
                        image=sorted(h.target.labels_of(img)),
                    )
    return PASS, checked, None


def _t21(ctx: StructureContext):
    # quotient corollary: Q delta-J and I <= Q give Q/I delta_q-J in the quotient
    checked = 0
    S = ctx.S
    for ideal in ctx.lattice:
        q = quotient(S, ideal.members)
        if not (q.ok and q.axiom_report.ok):
            continue
        if q.quotient.structure.one is None:
            continue
        from .ideals import enumerate_hyperideals as enum

        qlat = enum(q.quotient.structure)
        for name, delta in ctx.registry.items():
            dq = quotient_expansion(q.quotient, delta, ctx.lattice, qlat)
            for big in ctx.proper_ideals():
                if not ideal.members <= big.members:
                    continue
                if not _bool_of(is_delta_j(S, big.members, delta, ctx.lattice)):
                    continue
                checked += 1
                img = q.quotient.project(big.members)
                if img == frozenset(q.quotient.structure.carrier) or img not in qlat:
                    return FAIL, checked, _wit(ctx, modulus=ideal.members, ideal=big.members, delta=name)
                if not _bool_of(is_delta_j(q.quotient.structure, img, dq, qlat)):
                    return FAIL, checked, _wit(
                        ctx, modulus=ideal.members, ideal=big.members, delta=name,
                        quotient_ideal=sorted(q.quotient.structure.labels_of(img)),
                    )
    return PASS, checked, None


def _t22(ctx: StructureContext):
    # delta-J forces (2,n)-absorbing delta-J
    checked = 0
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            if not _bool_of(is_delta_j(ctx.S, q.members, delta, ctx.lattice)):
                continue
            checked += 1
            res = is_absorbing_delta_j(ctx.S, q.members, delta, 2, ctx.lattice)
            if res.verdict is Verdict.FALSE:
                return FAIL, checked, _wit(ctx, ideal=q.members, delta=name, witness=res.witness.as_dict())
    return PASS, checked, None


def _t23(ctx: StructureContext):
    # successor step of the absorbing chain: (k,n)-absorbing delta-J implies
    # (k+1,n)-absorbing delta-J (audited in place of the s>n phrasing)
    checked = 0
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            for k in range(2, ctx.k_max):
                res_k = is_absorbing_delta_j(ctx.S, q.members, delta, k, ctx.lattice)
                if res_k.verdict is not Verdict.TRUE:
                    continue
                checked += 1
                res_next = is_absorbing_delta_j(ctx.S, q.members, delta, k + 1, ctx.lattice)
                if res_next.verdict is Verdict.FALSE:
                    return FAIL, checked, _wit(
                        ctx, ideal=q.members, delta=name, k=k,
                        witness=res_next.witness.as_dict(),
                    )
    return PASS, checked, None


def _t24(ctx: StructureContext):
    # (k,n)-absorbing with the identity expansion forces the radical to be
    # (k,n)-absorbing for every registered expansion
    checked = 0
    delta0 = ctx.registry["delta0"]
    top = frozenset(ctx.S.carrier)
    for q in ctx.proper_ideals():
        rad = radical_by_primes(ctx.S, q.members, ctx.lattice).members
        for k in range(2, ctx.k_max + 1):
            if is_absorbing_delta_j(ctx.S, q.members, delta0, k, ctx.lattice).verdict is not Verdict.TRUE:
                continue
            for name, delta in ctx.registry.items():
                checked += 1
                if rad == top:
                    return FAIL, checked, _wit(
                        ctx, ideal=q.members, radical=rad, delta=name, k=k
                    )
                res = is_absorbing_delta_j(ctx.S, rad, delta, k, ctx.lattice)
                if res.verdict is Verdict.FALSE:
                    return FAIL, checked, _wit(
                        ctx, ideal=q.members, radical=rad, delta=name, k=k,
                        witness=res.witness.as_dict(),
                    )
    return PASS, checked, None


def _t25(ctx: StructureContext):
    # delta(Q) (2,n)-absorbing with the identity expansion forces Q
    # (3,n)-absorbing delta-J
    checked = 0
    delta0 = ctx.registry["delta0"]
    top = frozenset(ctx.S.carrier)
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            dq = delta(q.members)
            if dq == top:
                continue
            if is_absorbing_delta_j(ctx.S, dq, delta0, 2, ctx.lattice).verdict is not Verdict.TRUE:
                continue
            checked += 1
            res = is_absorbing_delta_j(ctx.S, q.members, delta, 3, ctx.lattice)
            if res.verdict is Verdict.FALSE:
                return FAIL, checked, _wit(
                    ctx, ideal=q.members, delta=name, witness=res.witness.as_dict()
                )
    return PASS, checked, None


def _t26(ctx: StructureContext):
    # delta(Q) (k+1,n)-absorbing delta-J forces Q (k+1,n)-absorbing delta-J
    checked = 0
    top = frozenset(ctx.S.carrier)
    for q in ctx.proper_ideals():
        for name, delta in ctx.registry.items():
            dq = delta(q.members)
            if dq == top:
                continue
            for k1 in range(2, ctx.k_max + 1):
                if is_absorbing_delta_j(ctx.S, dq, delta, k1, ctx.lattice).verdict is not Verdict.TRUE:
                    continue
                checked += 1
                res = is_absorbing_delta_j(ctx.S, q.members, delta, k1, ctx.lattice)
                if res.verdict is Verdict.FALSE:
                    return FAIL, checked, _wit(
                        ctx, ideal=q.members, delta=name, k=k1,
                        witness=res.witness.as_dict(),
                    )
    return PASS, checked, None


def _t27(ctx: StructureContext):
    # absorbing transfers along expansion-compatible homomorphisms, both
    # directions (conclusion read as the (k,n)-absorbing property)
    if not ctx.proper_ideals():
        return SKIP, 0, "no proper hyperideals"
    checked = 0
    for fix in ctx.hom_fixtures():
        if not _hom_applicable(fix):
            continue
        h = fix["hom"]
        tl = fix["target_lattice"]
        delta, gamma = fix["delta"], fix["gamma"]
        for k in range(2, ctx.k_max + 1):
            if h.injective:
                for i2 in tl.proper():
                    if is_absorbing_delta_j(h.target, i2.members, gamma, k, tl).verdict is not Verdict.TRUE:
                        continue
                    pre = h.preimage(i2.members)
                    checked += 1
                    if pre == frozenset(h.source.carrier) or pre not in ctx.lattice:
                        return FAIL, checked, _wit(ctx, fixture=fix["tag"], k=k)
                    res = is_absorbing_delta_j(h.source, pre, delta, k, ctx.lattice)
                    if res.verdict is Verdict.FALSE:
                        return FAIL, checked, _wit(
                            ctx, fixture=fix["tag"], k=k, preimage=pre,
                            witness=res.witness.as_dict(),
                        )
            if h.surjective:
                ker = kernel(h)
                for i1 in ctx.proper_ideals():
                    if not ker <= i1.members:
                        continue
                    if is_absorbing_delta_j(h.source, i1.members, delta, k, ctx.lattice).verdict is not Verdict.TRUE:
                        continue
                    img = h.image(i1.members)
                    checked += 1
                    if img == frozenset(h.target.carrier) or img not in tl:
                        return FAIL, checked, _wit(ctx, fixture=fix["tag"], ideal=i1.members, k=k)
                    res = is_absorbing_delta_j(h.target, img, gamma, k, tl)
                    if res.verdict is Verdict.FALSE:
                        return FAIL, checked, _wit(
                            ctx, fixture=fix["tag"], ideal=i1.members, k=k,
                            image=sorted(h.target.labels_of(img)),
                            witness=res.witness.as_dict(),
                        )
    return PASS, checked, None


THEOREMS: dict[str, TheoremCheck] = {
    t.tid: t
    for t in [
        TheoremCheck("T01", "J-hyperideals sit inside the Jacobson radical", True, _t01),
        TheoremCheck("T02", "local iff every proper hyperideal is J", True, _t02),
        TheoremCheck("T03", "J-hyperideals are intersection-closed", True, _t03),
        TheoremCheck("T04", "J iff residual-fixed outside J(R) iff ideal-tuple form", True, _t04),
        TheoremCheck("T05", "J iff residuals outside Q land in J(R)", True, _t05),
        TheoremCheck("T06", "residuals of J-hyperideals are J-hyperideals", True, _t06),
        TheoremCheck("T07", "maximal J-hyperideals are prime", True, _t07),
        TheoremCheck("T08", "a prime Jacobson radical is a top J-hyperideal", True, _t08),
        TheoremCheck("T09", "delta(Q) J forces Q delta-J", True, _t09),
        TheoremCheck("T10", "delta1-J forces a J radical", True, _t10),
        TheoremCheck("T11", "delta(Q) gamma-J forces Q (gamma o delta)-J", True, _t11),
        TheoremCheck("T12", "sandwich between delta-equal delta-J ideals", True, _t12),
        TheoremCheck("T13", "radical of delta-J is delta-J (gated)", True, _t13),
        TheoremCheck("T14", "intersection preservation and delta-J meets", True, _t14),
        TheoremCheck("T15", "three delta-J forms agree", True, _t15),
        TheoremCheck("T16", "delta-J iff inside J(R) with maximal-relative drops", True, _t16),
        TheoremCheck("T17", "local iff principal delta-J iff all delta-J", True, _t17),
        TheoremCheck("T18", "for delta-primary: delta-J iff inside J(R)", True, _t18),
        TheoremCheck("T19", "for maximal: delta-J iff equal to J(R)", True, _t19),
        TheoremCheck("T20", "delta-J transfers along hom fixtures", True, _t20),
        TheoremCheck("T21", "delta-J passes to quotients as induced-expansion J", True, _t21),
        TheoremCheck("T22", "delta-J forces (2,n)-absorbing delta-J", True, _t22),
        TheoremCheck("T23", "(k,n)-absorbing forces (k+1,n)-absorbing", False, _t23),
        # the radical's defining framework assumes a scalar identity
        TheoremCheck("T24", "absorbing passes to radicals", True, _t24),
        TheoremCheck("T25", "delta(Q) (2,n)-absorbing forces Q (3,n)-absorbing delta-J", False, _t25),
        TheoremCheck("T26", "delta(Q) (k+1,n)-absorbing delta-J forces the same for Q", False, _t26),
        TheoremCheck("T27", "absorbing transfers along hom fixtures", True, _t27),
    ]
}


def _claim_discrepancies(entry: CatalogEntry, k_max: int) -> list[Discrepancy]:
    from .classifiers import classify

    out = []
    S = entry.structure
    for claim in entry.claims:
        if claim.kind == "krasner-axioms":
            if not entry.report.ok:
                failed = entry.report.failed()[0]
                out.append(
                    Discrepancy(
                        S.name, claim.as_dict(), "all axioms pass",
                        f"{failed.axiom} fails", failed.as_dict(),
                    )
                )
        elif claim.kind == "canonical-hypergroup":
            rep = verify_canonical_hypergroup(S)
            if not rep.ok:
                failed = rep.failed()[0]
                out.append(
                    Discrepancy(
                        S.name, claim.as_dict(), "hypergroup axioms pass",
                        f"{failed.axiom} fails", failed.as_dict(),
                    )
                )
        elif claim.kind in ("hyperideal", "j-hyperideal"):
            members = frozenset(S.index_of(l) for l in claim.subset)
            check = is_hyperideal(S, members)
            if claim.kind == "hyperideal":
                if not check.ok:
                    out.append(
                        Discrepancy(
                            S.name, claim.as_dict(), "subset is a hyperideal",
                            f"clause {check.clause} fails",
                            {"clause": check.clause, "witness": _jsonable(check.witness)},
                        )
                    )
            else:
                report = classify(S, members, entry.registry(), k_max, entry.lattice())
                verdict = report.verdicts.get("J")
                if verdict is not Verdict.TRUE:
                    wit = report.witnesses.get("J")
                    out.append(
                        Discrepancy(
                            S.name, claim.as_dict(), "J-hyperideal",
                            verdict.value,
                            wit.as_dict() if wit else (
                                {"clause": check.clause, "witness": _jsonable(check.witness)}
                                if not check.ok else None
                            ),
                        )
                    )
        else:
            out.append(
                Discrepancy(S.name, claim.as_dict(), "known claim kind", "unknown", None)
            )
    return out


def replay_cell(entries: list[CatalogEntry], cell: AuditCell, k_max: int = 3) -> bool:
    """Re-run one audit cell from scratch; True iff the recorded outcome
    (status and, for failures, the exact witness) reproduces."""
    ordered = sorted(entries, key=lambda e: e.structure.name)
    entry = next(e for e in ordered if e.structure.name == cell.structure)
    check = THEOREMS[cell.theorem]
    if not entry.verified:
        return cell.status == SKIP
    if check.needs_identity and entry.structure.one is None:
        return cell.status == SKIP
    status, _, extra = check.run(StructureContext(entry, ordered, k_max))
    if cell.status == FAIL:
        return status == FAIL and extra == cell.witness
    return status == cell.status


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
        report.discrepancies.extend(_claim_discrepancies(entry, k_max))
    for entry in ordered:
        ctx = StructureContext(entry, ordered, k_max)
        for tid in ids:
            check = THEOREMS[tid]
            if not entry.verified:
                failed = entry.report.failed()[0].axiom
                report.cells.append(
                    AuditCell(
                        entry.structure.name, tid, SKIP,
                        reason=f"structure fails verification ({failed})",
                    )
                )
                continue
            if check.needs_identity and entry.structure.one is None:
                report.cells.append(
                    AuditCell(entry.structure.name, tid, SKIP, reason="no scalar identity")
                )
                continue
            outcome = check.run(ctx)
            status, checked, extra = outcome
            if status == SKIP:
                report.cells.append(
                    AuditCell(entry.structure.name, tid, SKIP, reason=extra)
                )
            elif status == PASS:
                report.cells.append(
                    AuditCell(entry.structure.name, tid, PASS, checked=checked)
                )
            else:
                report.cells.append(
                    AuditCell(
                        entry.structure.name, tid, FAIL, checked=checked, witness=extra
                    )
                )
    return report
