"""Built-in structures, exhaustive small-order enumeration, counterexample
search.

The enumeration works in two stages.  Hyperaddition candidates are generated
from membership orbits: neutrality, inverse uniqueness and reversibility link
individual memberships x in f(..) into closed orbits, so consistent tables
are exactly the unions of orbits extending the forced ones.  Surviving
candidates get the hypergroup axiom sweep.  Multiplication candidates are
zero-absorbing by construction and filtered by associativity once per shape.
Distributivity is then decided through translation maps: g distributes over
f exactly when every map x -> g(a_1..a_{n-1}, x) is an endomorphism of f.
The distinct maps of all candidate multiplications are far fewer than the
multiplications, so each is tested once per hypergroup, and a pair is kept
only if all of its multiplication's maps pass.  Each clause of
``verify_krasner`` is thus decided once per table, and kept pairs are not
verified again.  A plain product-scan strategy exists as a cross-check
oracle for the hyperaddition candidates.  Candidates are ranked cell tables
(``core.TableView``), and classes are keyed by their least relabeled cells,
from which the outputs are built.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Optional

from .core import (
    BITS,
    CapExceeded,
    FiniteStructure,
    AxiomReport,
    TableView,
    inverse_candidates,
    mask_of,
    msort,
    mul_associativity_violation,
    multiset_minus,
    multisets,
    ranked_plan,
    table_shape,
    translation_violation,
    verify_canonical_hypergroup,
    verify_krasner,
)
from .classifiers import (
    PREDICATES,
    STANDARD_EXPANSIONS,
    Predicate,
    PredicateResult,
    Verdict,
    standard_registry,
)
from .ideals import IdealLattice, enumerate_hyperideals

DEFAULT_ARITIES = ((2, 2), (3, 2), (2, 3), (3, 3))
ENUM_CANDIDATE_CAP = 2_000_000
FREE_ORBIT_CAP = 22


@dataclass(frozen=True)
class Claim:
    """An expectation shipped with a built-in structure, to be audited."""

    kind: str  # krasner-axioms | canonical-hypergroup | hyperideal | j-hyperideal
    subset: Optional[tuple[str, ...]] = None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "subset": list(self.subset) if self.subset else None}


@dataclass
class CatalogEntry:
    structure: FiniteStructure
    provenance: str  # builtin | enumerated | file
    claims: tuple[Claim, ...] = ()
    report: AxiomReport = None
    _lattice: Optional[IdealLattice] = field(default=None, repr=False)
    _registry: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.report is None:
            self.report = verify_krasner(self.structure)

    @property
    def verified(self) -> bool:
        return self.report.ok

    def lattice(self) -> IdealLattice:
        if self._lattice is None:
            self._lattice = enumerate_hyperideals(self.structure)
        return self._lattice

    def registry(self) -> dict:
        if self._registry is None:
            self._registry = standard_registry(self.structure, self.lattice())
        return self._registry


# -- built-in structures -----------------------------------------------------


def _fs(*xs):
    return frozenset(xs)


def builtin_ternary() -> CatalogEntry:
    """Three-element (3,3)-structure on {0, 1, x}.

    Shipped with the claims that it is a Krasner (3,3)-hyperring and that
    {0} and {0,x} are J-hyperideals; the verifier's verdicts are compared
    against these claims by the audit, never assumed.
    """
    A = _fs(0, 1, 2)
    add = {
        (0, 0, 0): _fs(0),
        (0, 0, 1): _fs(1),
        (0, 1, 1): _fs(1),
        (1, 1, 1): _fs(1),
        (1, 1, 2): A,
        (0, 1, 2): A,
        (0, 0, 2): _fs(2),
        (0, 2, 2): _fs(2),
        (1, 2, 2): A,
        (2, 2, 2): _fs(2),
    }
    mul = {key: 0 for key in multisets(3, 3) if 0 in key}
    mul[(1, 1, 1)] = 1
    mul[(1, 1, 2)] = 2
    mul[(1, 2, 2)] = 2
    mul[(2, 2, 2)] = 2
    S = FiniteStructure.build("builtin33", 3, 3, ("0", "1", "x"), add, mul, 0)
    claims = (
        Claim("krasner-axioms"),
        Claim("hyperideal", ("0",)),
        Claim("hyperideal", ("0", "x")),
        Claim("j-hyperideal", ("0",)),
        Claim("j-hyperideal", ("0", "x")),
    )
    return CatalogEntry(S, "builtin", claims)


def builtin_quaternary() -> CatalogEntry:
    """Four-element (2,4)-structure on {0, 1, a, b}: hyperaddition from the
    literature's displayed grid (1+1 = {0,1}, b+b = {0,1}, a+a = {0},
    a+b = {1}, 1+a = {b}, 1+b = {a,b}); products of four elements of {a,b}
    give a, anything else gives 0.  No element acts as a scalar identity,
    which the entry records honestly."""
    AA = _fs(0, 1)
    BB = _fs(2, 3)
    add = {
        (0, 0): _fs(0),
        (0, 1): _fs(1),
        (0, 2): _fs(2),
        (0, 3): _fs(3),
        (1, 1): AA,
        (1, 2): _fs(3),
        (1, 3): BB,
        (2, 2): _fs(0),
        (2, 3): _fs(1),
        (3, 3): AA,
    }
    mul = {
        key: 2 if all(k in (2, 3) for k in key) else 0 for key in multisets(4, 4)
    }
    S = FiniteStructure.build("builtin24", 2, 4, ("0", "1", "a", "b"), add, mul, 0)
    claims = (
        Claim("canonical-hypergroup"),
        Claim("krasner-axioms"),
        Claim("j-hyperideal", ("0",)),
    )
    return CatalogEntry(S, "builtin", claims)


def builtin_examples() -> list[CatalogEntry]:
    return [builtin_ternary(), builtin_quaternary()]


# -- canonical forms ---------------------------------------------------------


@lru_cache(maxsize=1024)
def _relabeling(size: int, arity: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Entry r is the rank of the key that a relabeling takes to the key of
    rank r, so that listing a table's cells through it gives the relabeled
    table in rank order."""
    shape = table_shape(size, arity)
    src = [0] * len(shape.keys)
    for r, key in enumerate(shape.keys):
        src[shape.rank[msort(tuple(perm[x] for x in key))]] = r
    return tuple(src)


@lru_cache(maxsize=16)
def _set_order(size: int) -> tuple[int, ...]:
    """Every mask over ``size`` elements, by its ascending element tuple."""
    return tuple(sorted(range(1 << size), key=BITS.__getitem__))


@lru_cache(maxsize=1024)
def _relabeled_sets(size: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """For every mask, the position of its relabeled set in ``_set_order``."""
    position = {mask: i for i, mask in enumerate(_set_order(size))}
    return tuple(
        position[mask_of(perm[x] for x in BITS[mask])] for mask in range(1 << size)
    )


def _relabeled(S: FiniteStructure, perm: tuple[int, ...]) -> tuple:
    """S's cells under a relabeling, in rank order: hyperaddition values as
    their positions in ``_set_order``, then the products."""
    sets = _relabeled_sets(S.size, perm)
    add, mul = S.add_cells, S.mul_cells
    return (
        tuple(sets[add[r]] for r in _relabeling(S.size, S.m, perm)),
        tuple(perm[mul[r]] for r in _relabeling(S.size, S.n, perm)),
    )


def _zero_fixing_perms(size: int, zero: int) -> Iterator[tuple[int, ...]]:
    others = [i for i in range(size) if i != zero]
    for images in permutations(others):
        perm = [0] * size
        perm[zero] = zero
        for src, dst in zip(others, images):
            perm[src] = dst
        yield tuple(perm)


def _canonical_perm(S: FiniteStructure) -> tuple[int, ...]:
    """The first zero-fixing relabeling with the least relabeled cells."""
    return min(_zero_fixing_perms(S.size, S.zero), key=lambda p: _relabeled(S, p))


def canonical_key(S: FiniteStructure):
    """The least relabeled cells over relabelings that fix the zero element:
    in key-rank order, each hyperaddition value as its position among all
    value sets ordered by ascending element tuple, then each product.  Keys
    of one shape compare and sort like the tables' (key, sorted values) and
    (key, product) item lists."""
    return _relabeled(S, _canonical_perm(S))


def canonicalize(S: FiniteStructure) -> FiniteStructure:
    """Relabel onto the canonical form; idempotent."""
    best = _canonical_perm(S)
    labels = [""] * S.size
    for old, new in enumerate(best):
        labels[new] = S.labels[old]
    return _from_key(S.name, S.m, S.n, labels, _relabeled(S, best), best[S.zero])


def _from_key(name, m, n, labels, key, zero) -> FiniteStructure:
    """The structure whose cells are a ``canonical_key``'s."""
    (add, mul), size = key, len(labels)
    sets = _set_order(size)
    add_view = TableView(table_shape(size, m), tuple(sets[p] for p in add), True)
    mul_view = TableView(table_shape(size, n), mul, False)
    return FiniteStructure.build(name, m, n, labels, add_view, mul_view, zero)


# -- hyperaddition candidates (orbit strategy) -------------------------------


def _involutions(elems: list[int]) -> list[dict]:
    """All involutions on a list of elements, deterministic order."""
    if not elems:
        return [{}]
    out = []
    first, rest = elems[0], elems[1:]
    for sub in _involutions(rest):
        out.append({first: first, **sub})
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _involutions(remaining):
            out.append({first: partner, partner: first, **sub})
    return out


def _orbit_of(atom, iota, m):
    """Closure of one membership atom under the reversibility transform."""
    seen = {atom}
    frontier = [atom]
    while frontier:
        key, x = frontier.pop()
        for a in sorted(set(key)):
            others = multiset_minus(key, (a,))
            new = (msort((x,) + tuple(iota[o] for o in others)), a)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return frozenset(seen)


def _add_candidates(order: int, m: int) -> Iterator[TableView]:
    """Hyperaddition tables with neutral zero, unique inverses and
    reversibility built in by orbit construction."""
    shape = table_shape(order, m)
    keys = shape.keys
    nonzero = list(range(1, order))
    for iota_nz in _involutions(nonzero):
        iota = {0: 0, **iota_nz}
        forced_present = set()
        forced_absent = set()
        for y in range(order):
            kn = msort((0,) * (m - 1) + (y,))
            forced_present.add((kn, y))
            for z in range(order):
                if z != y:
                    forced_absent.add((kn, z))
        for a in nonzero:
            for b in nonzero:
                if b < a:
                    continue
                key = msort((0,) * (m - 2) + (a, b))
                atom = (key, 0)
                if b == iota[a] or a == iota[b]:
                    forced_present.add(atom)
                else:
                    forced_absent.add(atom)
        all_atoms = [(key, x) for key in keys for x in range(order)]
        orbit_of_atom: dict = {}
        orbits = []
        for atom in all_atoms:
            if atom in orbit_of_atom:
                continue
            orb = _orbit_of(atom, iota, m)
            orbits.append(orb)
            for a in orb:
                orbit_of_atom[a] = orb
        must, free = [], []
        feasible = True
        for orb in orbits:
            has_p = any(a in forced_present for a in orb)
            has_a = any(a in forced_absent for a in orb)
            if has_p and has_a:
                feasible = False
                break
            if has_p:
                must.append(orb)
            elif not has_a:
                free.append(orb)
        if not feasible:
            continue
        if len(free) > FREE_ORBIT_CAP:
            raise CapExceeded(
                f"{len(free)} free membership orbits exceed cap {FREE_ORBIT_CAP}"
            )
        free.sort(key=lambda orb: min(orb))
        # orbits are disjoint, so a table is the OR of its orbits' cells
        base = [0] * len(keys)
        for orb in must:
            for key, x in orb:
                base[shape.rank[key]] |= 1 << x
        free_cells = [[(shape.rank[key], 1 << x) for key, x in orb] for orb in free]
        for bits in product((0, 1), repeat=len(free)):
            cells = list(base)
            for bit, orb in zip(bits, free_cells):
                if bit:
                    for r, b in orb:
                        cells[r] |= b
            if 0 in cells:
                continue
            yield TableView(shape, tuple(cells), True)


def _mul_candidates(order: int, n: int) -> Iterator[TableView]:
    """Zero-absorbing associative multiplication tables."""
    shape = table_shape(order, n)
    free = [r for r, key in enumerate(shape.keys) if 0 not in key]
    plan = ranked_plan(order, 2 * n - 1, n)
    cells = [0] * len(shape.keys)
    for values in product(range(order), repeat=len(free)):
        for r, v in zip(free, values):
            cells[r] = v
        if not any(mul_associativity_violation(cells, shape.ext, row) for row in plan):
            yield TableView(shape, tuple(cells), False)


def _translation_maps(order: int, n: int, mul: TableView) -> tuple[tuple[int, ...], ...]:
    """The distinct translations x -> g(a, x) of a multiplication, for a over
    the (n-1)-multisets, each as the tuple of its images."""
    cells = mul.cells
    maps = (tuple(cells[r] for r in row) for row in table_shape(order, n).ext)
    return tuple(dict.fromkeys(maps))


def _distributive_muls(
    order: int, m: int, add: TableView, muls: list[tuple[TableView, tuple]]
) -> Iterator[TableView]:
    """The multiplications that distribute over ``add``, in the given order.

    g distributes over f exactly when every translation map of g is an
    endomorphism of f.  ``muls`` pairs each multiplication with its
    translation maps; many multiplications share maps, so each distinct map
    is tested at most once per hyperaddition (through image and target
    tables that all hyperadditions of the shape share).
    """
    endo: dict[tuple[int, ...], bool] = {}
    for mul, maps in muls:
        for phi in maps:
            if phi not in endo:
                endo[phi] = translation_violation(order, m, add.cells, phi) is None
            if not endo[phi]:
                break
        else:
            yield mul


def _raw_add_candidates(order: int, m: int) -> Iterator[TableView]:
    """Plain product scan over all free value assignments (cross-check
    oracle for the orbit strategy).  Zero's neutral row is forced; the
    inverse-uniqueness constraint prunes early."""
    shape = table_shape(order, m)
    forced = {shape.rank[msort((0,) * (m - 1) + (y,))]: 1 << y for y in range(order)}
    inv_ranks = sorted(
        {
            shape.rank[msort((0,) * (m - 2) + (a, b))]
            for a in range(1, order)
            for b in range(1, order)
        }
        - set(forced)
    )
    other_ranks = [r for r in range(len(shape.keys)) if r not in forced and r not in inv_ranks]
    # every nonempty value set, by size and then by its element tuple
    values = sorted(range(1, 1 << order), key=lambda s: (len(BITS[s]), BITS[s]))
    cells = [0] * len(shape.keys)
    for r, mask in forced.items():
        cells[r] = mask
    for inv_vals in product(values, repeat=len(inv_ranks)):
        for r, mask in zip(inv_ranks, inv_vals):
            cells[r] = mask
        # the cells of every key of the form (0, .., 0, x, y) are set now
        if any(len(c) != 1 for c in inverse_candidates(order, m, 0, cells)):
            continue
        for other_vals in product(values, repeat=len(other_ranks)):
            for r, mask in zip(other_ranks, other_vals):
                cells[r] = mask
            yield TableView(shape, tuple(cells), True)


def enumerate_structures(
    m: int, n: int, order: int, strategy: str = "orbit"
) -> list[FiniteStructure]:
    """All verified Krasner (m,n)-hyperrings of the given order with zero at
    element 0, one per relabeling class: built from the distinct
    ``canonical_key``s in sorted order, so canonical forms in canonical
    order.  ``strategy="raw"`` generates the hyperadditions by the plain
    product scan, the oracle for the default orbit construction."""
    if not (2 <= m <= 4 and 2 <= n <= 4):
        raise ValueError(f"unsupported arities ({m},{n})")
    if order < 1:
        raise ValueError("order must be positive")
    if strategy == "orbit":
        add_source = _add_candidates(order, m)
    elif strategy == "raw":
        n_free_keys = len(list(multisets(order, m))) - order
        if (2**order - 1) ** n_free_keys > ENUM_CANDIDATE_CAP:
            raise CapExceeded(
                f"raw scan of (2^{order}-1)^{n_free_keys} hyperaddition tables"
                f" exceeds cap {ENUM_CANDIDATE_CAP}"
            )
        add_source = _raw_add_candidates(order, m)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    n_free_mul = len([k for k in multisets(order, n) if 0 not in k])
    if order**n_free_mul > ENUM_CANDIDATE_CAP:
        raise CapExceeded(
            f"scan of {order}^{n_free_mul} multiplication tables"
            f" exceeds cap {ENUM_CANDIDATE_CAP}"
        )
    muls = [
        (mul, _translation_maps(order, n, mul)) for mul in _mul_candidates(order, n)
    ]
    labels = tuple(str(i) for i in range(order))
    # probes and candidates use the plain constructor: their identity is
    # never read
    mul_shape = table_shape(order, n)
    zero_mul = TableView(mul_shape, (0,) * len(mul_shape.keys), False)
    seen_keys = set()
    candidates = 0
    for add in add_source:
        candidates += 1
        if candidates > ENUM_CANDIDATE_CAP:
            raise CapExceeded(f"enumeration candidate cap {ENUM_CANDIDATE_CAP} exceeded")
        probe = FiniteStructure("probe", m, n, labels, add, zero_mul, 0)
        if not verify_canonical_hypergroup(probe, fail_fast=True).ok:
            continue
        for mul in _distributive_muls(order, m, add, muls):
            S = FiniteStructure("candidate", m, n, labels, add, mul, 0)
            seen_keys.add(canonical_key(S))
    return [
        _from_key(f"enum-m{m}n{n}-o{order}-{i:03d}", m, n, labels, key, 0)
        for i, key in enumerate(sorted(seen_keys))
    ]


def _representative_slice(structures: list[FiniteStructure], k: int):
    """Deterministic order-4 sample: leading structures plus, when present,
    one with a scalar identity and one non-local one with identity, so the
    identity-gated predicates see real instances at order 4."""
    from .ideals import enumerate_hyperideals, is_local

    picks = list(structures[: max(0, k - 2)])

    def add_first(pred) -> None:
        for S in structures:
            if S not in picks and pred(S):
                picks.append(S)
                return

    add_first(lambda S: S.one is not None)
    add_first(lambda S: S.one is not None and not is_local(S, enumerate_hyperideals(S)))
    return picks[:k] if len(picks) > k else picks


def default_catalog(
    max_order: int = 3,
    arities=DEFAULT_ARITIES,
    order4_slice: int = 4,
    seed: Optional[int] = None,
) -> list[CatalogEntry]:
    """Built-ins plus exhaustive small orders plus a sampled order-4 slice."""
    entries = builtin_examples()
    for m, n in arities:
        for order in range(1, max_order + 1):
            for S in enumerate_structures(m, n, order):
                entries.append(CatalogEntry(S, "enumerated"))
    if order4_slice:
        slice4 = list(enumerate_structures(2, 2, 4))
        if seed is not None:
            rng = random.Random(seed)
            rng.shuffle(slice4)
        entries.extend(
            CatalogEntry(S, "enumerated")
            for S in _representative_slice(slice4, order4_slice)
        )
    return entries


# -- counterexample search ---------------------------------------------------


@dataclass(frozen=True)
class SearchHit:
    structure: str
    ideal: tuple[str, ...]
    antecedent: str
    consequent: str

    def as_dict(self) -> dict:
        return {**asdict(self), "ideal": list(self.ideal)}


def _in_jacobson(S, Q, lattice, delta, k) -> PredicateResult:
    ok = Q <= lattice.jacobson.members
    return PredicateResult(Verdict.TRUE if ok else Verdict.FALSE)


def _parse_predicate(spec: str):
    """Predicate mini-grammar: name or name[args], resolved before any
    structure is scanned.

    Names are the rows of ``classifiers.PREDICATES`` plus ``in-jacobson``:
    prime, primary, maximal, J, in-jacobson, delta-J[d], delta-primary[d],
    absorbing[d,k], with d a standard expansion and k an integer >= 2.
    """
    spec = spec.strip()
    name, args = spec, []
    if "[" in spec:
        if not spec.endswith("]"):
            raise ValueError(f"malformed predicate {spec!r}")
        name, inner = spec[:-1].split("[", 1)
        args = [a.strip() for a in inner.split(",")]
    row = {**PREDICATES, "in-jacobson": Predicate("in-jacobson", 0, _in_jacobson)}.get(name)
    if row is None:
        raise ValueError(f"unknown predicate {name!r}")
    if len(args) != row.params:
        raise ValueError(f"{name} takes {row.params} argument(s), got {spec!r}")
    delta = args[0] if args else None
    if delta is not None and delta not in STANDARD_EXPANSIONS:
        raise ValueError(f"predicate {spec!r} needs a registered expansion")
    k = int(args[1]) if row.params == 2 and args[1].isdigit() else None
    if row.params == 2 and (k is None or k < 2):
        raise ValueError(f"absorbing degree in {spec!r} must be an integer >= 2")

    def run(S, lattice, registry, Q) -> Verdict:
        return row.evaluate(S, Q, lattice, registry[delta] if delta else None, k).verdict

    return run


def search_counterexample(
    implication: str, entries: list[CatalogEntry]
) -> Optional[SearchHit]:
    """First (structure, proper ideal) violating 'lhs => rhs', if any.

    Instances where either side is inapplicable are skipped.
    """
    if "=>" not in implication:
        raise ValueError("implication must look like 'J => prime'")
    lhs_spec, rhs_spec = (s.strip() for s in implication.split("=>", 1))
    lhs, rhs = _parse_predicate(lhs_spec), _parse_predicate(rhs_spec)
    for entry in entries:
        S = entry.structure
        lattice = entry.lattice()
        registry = entry.registry()
        for ideal in lattice.proper():
            a = lhs(S, lattice, registry, ideal.members)
            b = rhs(S, lattice, registry, ideal.members)
            if a is Verdict.TRUE and b is Verdict.FALSE:
                return SearchHit(S.name, ideal.labels(), lhs_spec, rhs_spec)
    return None
