"""Built-in structures, exhaustive small-order enumeration, counterexample
search.

The enumeration builds both candidate tables with one depth-first search
(``_search``), in the style of the cell-assignment searches of SEM and
Mace4.  For the hyperaddition, neutrality, inverse uniqueness and
reversibility link individual memberships x in f(..) into closed orbits;
the orbits forced in are set, and each level of the search leaves one free
orbit out, then takes it in.  For the multiplication, zero-absorbing by
construction, each level gives one cell without a zero factor its values in
ascending order.  Either way the leaves come in the order of a product scan
over the choices.  The search is one loop over a per-level count of the
options tried, with no generator frame per level.  Each associativity row
of ``ranked_plan``, and for the hyperaddition each "cell is not empty"
test, runs at the first level where every cell it can read is final, and a
failing one cuts off the branch.  Every hyperaddition leaf still gets the
hypergroup axiom check, and every multiplication leaf the full
associativity check.  Distributivity is then decided through translation
maps: g distributes over f exactly when every map x -> g(a_1..a_{n-1}, x)
is an endomorphism of f.  The distinct maps of all candidate
multiplications are far fewer than the multiplications, so ``_map_masks``
lists them once per enumeration and gives each multiplication the bitmask
of its maps; each hypergroup tests every distinct map once, for the mask of
its endomorphisms, and keeps the multiplications whose mask lies inside
that one.  Each clause of ``verify_krasner`` is thus decided once per
table, and kept pairs are not verified again.  Candidates are ranked cell tables (``core.TableView``), and classes are
keyed by their least relabeled cells, from which the outputs are built;
relabelings act through ``carrier_map``.  Both candidate sets are closed
under the relabelings that fix the zero, and the key of a class minimises
its hyperaddition cells first, so only a hyperaddition that is the least of
its class is verified and paired; a pair's key is its own hyperaddition
cells with the least products over the hyperaddition's automorphisms.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import permutations
from typing import Iterable, Iterator, Optional

from .core import (
    BITS,
    CapExceeded,
    FiniteStructure,
    AxiomReport,
    TableView,
    add_associativity_violation,
    carrier_map,
    map_violation,
    mask_of,
    msort,
    mul_associativity_violation,
    multisets,
    ranked_plan,
    table_shape,
    verify_canonical_hypergroup,
    verify_krasner,
)
from .classifiers import (
    PREDICATES,
    STANDARD_EXPANSIONS,
    Predicate,
    PredicateResult,
    Verdict,
)
from .ideals import IdealLattice

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
    """A structure with its provenance and shipped claims.  The axiom report
    is computed at construction, where the size guard raises; the lattice
    and registry are the structure's own, built on first call."""

    structure: FiniteStructure
    provenance: str  # builtin | enumerated | file
    claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        self.report: AxiomReport = verify_krasner(self.structure)

    @property
    def verified(self) -> bool:
        return self.report.ok

    def lattice(self) -> IdealLattice:
        return self.structure.lattice

    def registry(self) -> dict:
        return self.structure.lattice.registry


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


def _relabel(cells: tuple, arity: int, inverse: tuple[int, ...], values: tuple) -> tuple:
    """One table's cells under a relabeling, in rank order: the relabeled
    cell at rank r is the old cell at the rank the inverse relabeling takes
    r's key to, passed through ``values``."""
    size = len(inverse)
    return tuple(values[cells[r]] for r in carrier_map(inverse, arity, size, size)[1])


def _relabeled_add(cells: tuple, m: int, perm: tuple[int, ...], inverse: tuple[int, ...]) -> tuple:
    """Hyperaddition cells under a relabeling, each value set as its
    position in ``_set_order``."""
    return _relabel(cells, m, inverse, _relabeled_sets(len(perm), perm))


def _relabeled(S: FiniteStructure, perm: tuple[int, ...], inverse: tuple[int, ...]) -> tuple:
    """S's cells under a relabeling: the hyperaddition's, then the
    products."""
    return (
        _relabeled_add(S.add_cells, S.m, perm, inverse),
        _relabel(S.mul_cells, S.n, inverse, perm),
    )


@lru_cache(maxsize=16)
def _zero_fixing_perms(size: int, zero: int) -> tuple:
    """Every relabeling of {0..size-1} that fixes ``zero``, with its
    inverse, as (perm, inverse) tuples of images."""
    others = [i for i in range(size) if i != zero]
    out = []
    for images in permutations(others):
        perm, inverse = list(range(size)), list(range(size))
        for src, dst in zip(others, images):
            perm[src], inverse[dst] = dst, src
        out.append((tuple(perm), tuple(inverse)))
    return tuple(out)


def _least_add(add: TableView) -> Optional[tuple[tuple, list]]:
    """(own cells, automorphisms) of a hyperaddition with zero at element 0
    whose cells, in ``canonical_key``'s order, are the least over the
    relabelings that fix the zero; None if some relabeling gives less.  The
    automorphisms are the (relabeling, inverse) pairs that reproduce the
    own cells."""
    size, m = add.shape.size, add.shape.arity
    identity = tuple(range(size))
    own = _relabeled_add(add.cells, m, identity, identity)
    automorphisms = []
    for perm, inverse in _zero_fixing_perms(size, 0):
        cells = _relabeled_add(add.cells, m, perm, inverse)
        if cells < own:
            return None
        if cells == own:
            automorphisms.append((perm, inverse))
    return own, automorphisms


def _canonical_perm(S: FiniteStructure) -> tuple:
    """The first zero-fixing (relabeling, inverse) with the least relabeled
    cells."""
    return min(_zero_fixing_perms(S.size, S.zero), key=lambda p: _relabeled(S, *p))


def canonical_key(S: FiniteStructure):
    """The least relabeled cells over relabelings that fix the zero element:
    in key-rank order, each hyperaddition value as its position among all
    value sets ordered by ascending element tuple, then each product.  Keys
    of one shape compare and sort like the tables' (key, sorted values) and
    (key, product) item lists."""
    return _relabeled(S, *_canonical_perm(S))


def canonicalize(S: FiniteStructure) -> FiniteStructure:
    """Relabel onto the canonical form; idempotent."""
    perm, inverse = _canonical_perm(S)
    labels = [S.labels[old] for old in inverse]
    return _from_key(S.name, S.m, S.n, labels, _relabeled(S, perm, inverse), perm[S.zero])


def _from_key(name, m, n, labels, key, zero) -> FiniteStructure:
    """The structure whose cells are a ``canonical_key``'s."""
    (add, mul), size = key, len(labels)
    sets = _set_order(size)
    add_view = TableView(table_shape(size, m), tuple(sets[p] for p in add), True)
    mul_view = TableView(table_shape(size, n), mul, False)
    return FiniteStructure.build(name, m, n, labels, add_view, mul_view, zero)


# -- candidate tables: one depth-first search --------------------------------


def _empty_cell(cells: list, r: int) -> bool:
    return not cells[r]


def _row_check(violation, ext: tuple, row: tuple) -> tuple:
    """An associativity row of ``ranked_plan`` as a search check: the cells
    it can read, those of its sub-multisets and the ``ext`` rows of their
    remainders, with the row's ``violation`` test."""
    reads = {r for _, a, rest in row[1] for r in (a, *ext[rest])}
    return reads, partial(violation, ext=ext, row=row)


def _search(cells: list, levels: list, checks: list) -> Iterator[None]:
    """Depth-first over the choices of ``levels``, yielding at each leaf
    with ``cells`` holding its table, in the order of a ``product`` over
    the levels' options.  An option is a tuple of (rank, bits) that is
    XORed into ``cells``, and back out before the next option of its level
    is tried or the level is left, so an exhausted search leaves ``cells``
    as it found them; a cell is final after the last level that can change
    it.  ``checks`` pairs the cells a check can read with the check; each
    runs at the first level where all of them are final, and one that
    returns a truthy value cuts off the branch."""
    position = [-1] * len(cells)
    for i, options in enumerate(levels):
        for option in options:
            for r, _ in option:
                position[r] = i
    # ready[i + 1] holds the checks level i decides, ready[0] the rest
    ready: list = [[] for _ in range(len(levels) + 1)]
    for reads, check in checks:
        ready[max(position[r] for r in reads) + 1].append(check)
    if any(check(cells) for check in ready[0]):
        return
    last = len(levels) - 1
    if last < 0:
        yield
        return
    # tried[i] counts the options of level i taken so far; the last of them
    # is the one XORed into ``cells``
    tried = [0] * len(levels)
    i = 0
    while i >= 0:
        options, k = levels[i], tried[i]
        if k:
            for r, bits in options[k - 1]:
                cells[r] ^= bits
        if k == len(options):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = k + 1
        for r, bits in options[k]:
            cells[r] ^= bits
        for check in ready[i + 1]:
            if check(cells):
                break
        else:
            if i == last:
                yield
            else:
                i += 1


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
            i = key.index(a)
            others = key[:i] + key[i + 1 :]
            new = (msort((x,) + tuple(iota[o] for o in others)), a)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return frozenset(seen)


def _membership_orbits(order: int, m: int) -> Iterator[tuple[list, list]]:
    """Per involution of the nonzero elements that leaves the forced
    memberships consistent, in ``_involutions`` order: the ranked cells of
    the orbits forced in, and the free orbits by least atom, each as a
    tuple of (rank, bits).  Orbits are disjoint, so a table is the forced
    cells with the bits of the free orbits it takes in."""
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
        cells = [0] * len(keys)
        for orb in must:
            for key, x in orb:
                cells[shape.rank[key]] |= 1 << x
        ranked = []
        for orb in free:
            bits: dict = {}
            for key, x in orb:
                r = shape.rank[key]
                bits[r] = bits.get(r, 0) | 1 << x
            ranked.append(tuple(bits.items()))
        yield cells, ranked


def _add_candidates(order: int, m: int) -> Iterator[TableView]:
    """Hyperaddition tables with neutral zero, unique inverses and
    reversibility built in by orbit construction, no empty cell and
    associative: each free orbit is a level of the search, first left out,
    then taken in, and a cell is final once the last free orbit through it
    is decided."""
    shape = table_shape(order, m)
    empty = [((r,), partial(_empty_cell, r=r)) for r in range(len(shape.keys))]
    rows = [
        _row_check(add_associativity_violation, shape.ext, row)
        for row in ranked_plan(order, 2 * m - 1, m)
    ]
    for cells, free in _membership_orbits(order, m):
        for _ in _search(cells, [((), orb) for orb in free], empty + rows):
            yield TableView(shape, tuple(cells), True)


def _mul_candidates(order: int, n: int) -> Iterator[TableView]:
    """Zero-absorbing associative multiplication tables: the free cells,
    those without a zero factor, are the levels of the search, each taking
    its values in ascending order."""
    shape = table_shape(order, n)
    free = [r for r, key in enumerate(shape.keys) if 0 not in key]
    levels = [tuple(((r, v),) for v in range(order)) for r in free]
    plan, ext = ranked_plan(order, 2 * n - 1, n), shape.ext
    # a row through the zero holds by zero absorption, whatever the free
    # cells hold, so only the leaf check reads it
    rows = [_row_check(mul_associativity_violation, ext, row) for row in plan if 0 not in row[0]]
    cells = [0] * len(shape.keys)
    for _ in _search(cells, levels, rows):
        if not any(mul_associativity_violation(cells, ext, row) for row in plan):
            yield TableView(shape, tuple(cells), False)


def _map_masks(muls: Iterable[TableView]) -> tuple[tuple, list[tuple[TableView, int]]]:
    """(maps, masked) for multiplications of one shape: ``maps`` the
    distinct translations x -> g(a, x) over all of them, for a over the
    (n-1)-multisets, each as the tuple of its images, in first-seen order;
    ``masked`` pairs each multiplication with the bitmask of its maps,
    bit i for ``maps[i]``."""
    index: dict[tuple[int, ...], int] = {}
    masked = []
    for mul in muls:
        cells, mask = mul.cells, 0
        for row in mul.shape.ext:
            mask |= 1 << index.setdefault(tuple(cells[r] for r in row), len(index))
        masked.append((mul, mask))
    return tuple(index), masked


def _distributive_muls(
    add: TableView, map_masks: tuple[tuple, list[tuple[TableView, int]]]
) -> Iterator[TableView]:
    """The multiplications that distribute over ``add``, in the given order.

    g distributes over f exactly when every translation map of g is an
    endomorphism of f.  ``map_masks`` is ``_map_masks`` of the
    multiplications; many of them share maps, so each distinct map is
    tested once per hyperaddition (through image and target tables that all
    hyperadditions of the shape share), and a multiplication is kept when
    its map mask lies inside the mask of the endomorphisms.
    """
    maps, masked = map_masks
    endo = 0
    for i, phi in enumerate(maps):
        if map_violation(phi, add, add) is None:
            endo |= 1 << i
    for mul, mask in masked:
        if not mask & ~endo:
            yield mul


def enumerate_structures(m: int, n: int, order: int) -> list[FiniteStructure]:
    """All verified Krasner (m,n)-hyperrings of the given order with zero at
    element 0, one per relabeling class: built from the distinct
    ``canonical_key``s in sorted order, so canonical forms in canonical
    order.  Each class is reached through its least hyperaddition, which
    alone is verified and paired with the distributive multiplications; the
    key of a pair is computed there, not through ``canonical_key``.  The
    hyperadditions come from the orbit search of ``_add_candidates``."""
    if not (2 <= m <= 4 and 2 <= n <= 4):
        raise ValueError(f"unsupported arities ({m},{n})")
    if order < 1:
        raise ValueError("order must be positive")
    n_free_mul = len([k for k in multisets(order, n) if 0 not in k])
    if order**n_free_mul > ENUM_CANDIDATE_CAP:
        raise CapExceeded(
            f"search over {order}^{n_free_mul} multiplication tables"
            f" exceeds cap {ENUM_CANDIDATE_CAP}"
        )
    map_masks = _map_masks(_mul_candidates(order, n))
    labels = tuple(str(i) for i in range(order))
    # probes and candidates use the plain constructor: their identity is
    # never read
    mul_shape = table_shape(order, n)
    zero_mul = TableView(mul_shape, (0,) * len(mul_shape.keys), False)
    seen_keys = set()
    candidates = 0
    for add in _add_candidates(order, m):
        candidates += 1
        if candidates > ENUM_CANDIDATE_CAP:
            raise CapExceeded(f"enumeration candidate cap {ENUM_CANDIDATE_CAP} exceeded")
        least = _least_add(add)
        if least is None:
            continue
        probe = FiniteStructure("probe", m, n, labels, add, zero_mul, 0)
        if not verify_canonical_hypergroup(probe, fail_fast=True).ok:
            continue
        own, automorphisms = least
        for mul in _distributive_muls(add, map_masks):
            products = min(_relabel(mul.cells, n, inverse, perm) for perm, inverse in automorphisms)
            seen_keys.add((own, products))
    return [
        _from_key(f"enum-m{m}n{n}-o{order}-{i:03d}", m, n, labels, key, 0)
        for i, key in enumerate(sorted(seen_keys))
    ]


def _representative_slice(structures: list[FiniteStructure], k: int):
    """Deterministic order-4 sample: leading structures plus, when present,
    one with a scalar identity and one non-local one with identity, so the
    identity-gated predicates see real instances at order 4."""
    from .ideals import is_local

    picks = list(structures[: max(0, k - 2)])

    def add_first(pred) -> None:
        for S in structures:
            if S not in picks and pred(S):
                picks.append(S)
                return

    add_first(lambda S: S.one is not None)
    add_first(lambda S: S.one is not None and not is_local(S))
    return picks[:k] if len(picks) > k else picks


def default_catalog(max_order: int = 3, seed: Optional[int] = None) -> list[CatalogEntry]:
    """Built-ins plus exhaustive small orders plus a sampled order-4 slice of
    four (2,2) structures."""
    entries = builtin_examples()
    for m, n in DEFAULT_ARITIES:
        for order in range(1, max_order + 1):
            for S in enumerate_structures(m, n, order):
                entries.append(CatalogEntry(S, "enumerated"))
    slice4 = list(enumerate_structures(2, 2, 4))
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(slice4)
    entries.extend(CatalogEntry(S, "enumerated") for S in _representative_slice(slice4, 4))
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
