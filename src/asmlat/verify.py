"""One-shot verification: every structural claim as an executable check.

``SUITES`` is the package's one registry of properties.  Each suite
sweeps matrices up to a size cap (intersected with the requested
maximum) and reports "name: passed/checked"; a failure anywhere means a
broken build.  The test suite runs every entry at every size up to its
cap.  The brute-force oracles the suites and tests compare against (the
entrywise order and cover test on corner sums, H_pq by a scan of the
entries, the generic cover relation, the cover closure, the definitional
beta, the greedy chain rank, the generating polynomials by enumeration,
the Hasse diagram by the cover scan) and the lattice-law predicate live
here too, each in one place.

Like each A_n, each matrix's up covers are found once per process and
kept (``_up``), with the matrix of A_n itself as each edge's upper end;
the cover edges, the closure from the identity, the random cover walks
and the scanned Hasse diagram all read them.  The generic cover relation
is built once per universe, from one comparison per pair of matrices.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, Optional, Union

from . import core, enumeration, poset, stats
from .core import (
    Asm,
    Permutation,
    dual,
    from_corner_sum,
    from_permutation,
    identity,
    iter_permutations,
    minus_count,
    transpose,
    validate,
)
from .polynomials import BivariatePolynomial, HalfIntPolynomial
from .poset import Ordering, compare, leq

_cache: dict[int, list[Asm]] = {}
# for each n, every matrix of A_n keyed by itself: the upper end of each
# kept edge below is looked up here
_same: dict[int, dict[Asm, Asm]] = {}
# each matrix's up covers, found once per process like the A_n above
_up: dict[Asm, tuple[poset.CoverEdge, ...]] = {}


def _asms(n: int) -> list[Asm]:
    if n not in _cache:
        _cache[n] = enumeration.enumerate_asms(n)
    return _cache[n]


def _covers_up(a: Asm) -> tuple[poset.CoverEdge, ...]:
    """``poset.covers_up(a)``, kept in ``_up`` from its first call, each
    edge's upper end swapped for the equal matrix of ``_asms(a.n)``, so
    a matrix and its memos are held once however many edges end at it;
    an upper end outside A_n is kept, for the suites to report."""
    up = _up.get(a)
    if up is None:
        same = _same.get(a.n)
        if same is None:
            same = _same[a.n] = {b: b for b in _asms(a.n)}
        up = _up[a] = tuple(poset.covers_up(a))
        for e in up:
            # the edges are new and not yet shared, so the frozen field
            # is set in place, not by a rebuilt edge (nor through
            # e.__dict__, which would give each edge a dict of its own)
            object.__setattr__(e, "upper", same.get(e.upper, e.upper))
    return up


@functools.cache
def _bigrassmannians(n: int) -> list[tuple[Permutation, Asm]]:
    """Each bigrassmannian w of S_n with its matrix, built once per n."""
    return [(w, from_permutation(w)) for w in poset.enumerate_bigrassmannians(n)]


def _edges(n: int) -> Iterable[poset.CoverEdge]:
    """Every cover edge of A_n, from its lower end by ``covers_up``."""
    return (e for a in _asms(n) for e in _covers_up(a))


def _check_all(items, predicate) -> tuple[int, list[str]]:
    results = list(map(predicate, items))
    return len(results), [msg for msg in results if msg]


def check_corner_sum_round_trip(n: int):
    return _check_all(
        _asms(n),
        lambda a: None
        if from_corner_sum(core.corner_sum(a)) == a
        else f"round trip failed for\n{a}",
    )


def check_involutions(n: int):
    def pred(a: Asm):
        if transpose(transpose(a)) != a or dual(dual(a)) != a:
            return f"involution broken for\n{a}"
        if minus_count(transpose(a)) != minus_count(a) or minus_count(dual(a)) != minus_count(a):
            return f"minus count not preserved for\n{a}"
        return None
    return _check_all(_asms(n), pred)


def check_permutation_embedding(n: int):
    def pred(w):
        a = from_permutation(w)
        try:
            validate(a.entries)
        except core.AsmError as exc:
            return f"{w}: {exc}"
        if core.to_permutation(a) != w:
            return f"{w}: embedding does not invert"
        return None
    return _check_all(iter_permutations(n), pred)


def check_corner_sum_invariants(n: int):
    def pred(a: Asm):
        try:
            core.check_corner_sums(core.corner_sum(a).sums)
        except core.AsmError as exc:
            return f"{exc} for\n{a}"
        return None
    return _check_all(_asms(n), pred)


def check_beta_three_way(n: int):
    def pred(a: Asm):
        w = stats.beta_weighted(a)
        if w != stats.beta_row_weighted(a) or w != stats.beta_corner(a):
            return f"beta formulas disagree on\n{a}"
        return None
    return _check_all(_asms(n), pred)


def check_duality_identity(n: int):
    target = n * (n - 1) // 2
    def pred(a: Asm):
        got = stats.inversion_number(a) + stats.dual_inversion_number(a) - minus_count(a)
        return None if got == target else f"I + I* - N = {got} != {target} on\n{a}"
    return _check_all(_asms(n), pred)


def check_stat_record_vs_definitions(n: int):
    def pred(a: Asm):
        got = stats.stat_record(a)
        want = stats.StatRecord(
            inv=stats.inversion_number(a),
            dual_inv=stats.dual_inversion_number(a),
            minus=minus_count(a),
            weak2=stats.weak_inversion_twice(a),
            beta=stats.beta_corner(a),
        )
        return None if got == want else f"stat_record {got} != definitions {want} on\n{a}"
    return _check_all(_asms(n), pred)


def check_inversion_le_beta(n: int):
    return _check_all(
        _asms(n),
        lambda a: None
        if stats.inversion_number(a) <= stats.beta_corner(a)
        else f"I > beta on\n{a}",
    )


def check_dual_inversion_via_dual(n: int):
    return _check_all(
        _asms(n),
        lambda a: None
        if stats.dual_inversion_number(a) == stats.inversion_number(dual(a))
        else f"I* mismatch on\n{a}",
    )


def check_local_weak_sum(n: int):
    def pred(a: Asm):
        # H_pq is 0 wherever a_pq is; only the nonzero shares are added
        total = sum(filter(None, (
            stats.local_weak_contribution(a, p, q)
            for p in range(1, n + 1)
            for q in range(1, n + 1)
        )))
        return None if total == stats.weak_inversion(a) else f"local H sum mismatch on\n{a}"
    return _check_all(_asms(n), pred)


def check_permutation_beta_formula(n: int):
    def pred(w):
        if stats.beta_weighted(from_permutation(w)) != stats.classical_beta(w.images):
            return f"weighted beta disagrees with one-line formula on {w}"
        return None
    return _check_all(iter_permutations(n), pred)


def check_max_weak_inversion(n: int):
    top = n * (n - 1)  # 2H, an int, so no Fraction is built or compared
    w0 = from_permutation(core.Permutation.longest(n))
    def pred(a: Asm):
        h = stats.weak_inversion_twice(a)
        if not 0 <= h <= top:
            return f"2H = {h} outside 0..n(n-1) on\n{a}"
        if h == top and a != w0:
            return f"max H attained off the reversal on\n{a}"
        if a == w0 and h != top:
            return "H at the reversal is not n(n-1)/2"
        return None
    return _check_all(_asms(n), pred)


def scanned_local_weak_contribution(a: Asm, p: int, q: int) -> Fraction:
    """H_pq by a scan of a's nonzero entries and of row p and column q,
    the oracle for :func:`stats.local_weak_contribution`."""
    apq = a.entries[p - 1][q - 1]
    sw_ne = sum(v for r, s, v in a.nonzeros() if (r > p and s < q) or (r < p and s > q))
    above = sum(a.entries[r][q - 1] for r in range(p - 1))
    right = sum(a.entries[p - 1][q:])
    return apq * (Fraction(sw_ne, 2) + Fraction(above + right, 4))


def dominance_compare(a: Asm, b: Asm) -> Ordering:
    """The order by an entrywise walk of the corner-sum tables, the oracle
    for :func:`poset.compare` and :func:`poset.leq`: a < b where a's sums
    are larger somewhere and smaller nowhere."""
    a_below = b_below = False
    for ra, rb in zip(core.corner_sum(a).sums, core.corner_sum(b).sums):
        for x, y in zip(ra, rb):
            if x > y:
                a_below = True
            elif x < y:
                b_below = True
    if a_below and b_below:
        return Ordering.INCOMPARABLE
    if a_below:
        return Ordering.LESS
    return Ordering.GREATER if b_below else Ordering.EQUAL


def scanned_try_cover(a: Asm, b: Asm) -> Optional[poset.CoverEdge]:
    """The cover edge a <| b by a scan of the corner-sum tables, the oracle
    for :func:`poset.try_cover`: the tables differ at one position (r, s)
    only, where a's is the larger by one."""
    found = None
    for r, (ra, rb) in enumerate(zip(core.corner_sum(a).sums, core.corner_sum(b).sums), start=1):
        for s, (x, y) in enumerate(zip(ra, rb), start=1):
            if x != y:
                if found or x - y != 1:
                    return None
                found = (r, s)
    return None if found is None else poset._edge(a, b, *found)


def generic_covers(universe: list[Asm]) -> set[tuple[int, int]]:
    """The cover relation of ``universe`` from comparisons alone, as the
    index pairs (i, j) where universe[i] < universe[j] with nothing in
    between.  One ``compare`` per unordered pair fills the bitsets
    above[i] and below[j] of the strict order; universe[j] covers
    universe[i] iff j is in above[i] and no index is in both above[i] and
    below[j]."""
    above = [0] * len(universe)
    below = [0] * len(universe)
    for (i, a), (j, b) in itertools.combinations(enumerate(universe), 2):
        order = compare(a, b)
        if order is Ordering.LESS:
            above[i] |= 1 << j
            below[j] |= 1 << i
        elif order is Ordering.GREATER:
            above[j] |= 1 << i
            below[i] |= 1 << j
    return {
        (i, j)
        for i, up in enumerate(above)
        for j in range(up.bit_length())
        if up >> j & 1 and not up & below[j]
    }


def bigrassmannians_below(b: Asm) -> list[Permutation]:
    """The bigrassmannian permutations weakly below b."""
    return [w for w, m in _bigrassmannians(b.n) if leq(m, b)]


def beta_poset_oracle(b: Asm) -> int:
    """The definitional rank: bigrassmannian permutations weakly below b.

    One order test per bigrassmannian of S_n, C(n+1, 3) of them; used to
    cross-check the closed formulas, not as the production beta.
    """
    return len(bigrassmannians_below(b))


def rank_by_chain(a: Asm) -> int:
    """Length of a saturated chain down to the identity, by greedy descent."""
    steps = 0
    cur = a
    bottom = identity(a.n)
    while cur != bottom:
        down = poset.covers_down(cur)
        if not down:
            raise core.AsmError("non-identity matrix with no lower cover")
        cur = down[0].lower
        steps += 1
    return steps


def bfs_cover_closure(n: int) -> list[Asm]:
    """All matrices reachable from the identity by upward covers.

    Slow test oracle for the direct enumeration.
    """
    start = identity(n)
    seen = {start}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for e in _covers_up(a):
            if e.upper not in seen:
                seen.add(e.upper)
                queue.append(e.upper)
    return sorted(seen, key=lambda a: a.entries)


def scanned_hasse(n: int) -> enumeration.HasseGraph:
    """The Hasse diagram by the cover scan, the oracle for
    :func:`enumeration.build_hasse`: ``covers_up`` and ``stat_record`` on
    every matrix of A_n, an index dict for the upper ends, and one global
    sort of the edges."""
    matrices = _asms(n)
    index = {a: i for i, a in enumerate(matrices)}
    # each edge is found once, from its lower end, so this counts lower covers
    lower_covers = [0] * len(matrices)
    edges = []
    for i, a in enumerate(matrices):
        for e in _covers_up(a):
            j = index[e.upper]
            lower_covers[j] += 1
            edges.append(enumeration.HasseEdge(i, j, e.cover_type))
    edges.sort(key=lambda e: (e.lower, e.upper))
    nodes = tuple(
        enumeration.HasseNode(a, stats.stat_record(a), join_irreducible=k == 1)
        for a, k in zip(matrices, lower_covers)
    )
    return enumeration.HasseGraph(n, nodes, tuple(edges))


def check_hasse_vs_cover_scan(n: int):
    # one check per node (matrix, record, join-irreducible flag) and per
    # edge (ends and type, in order); a missing one compares with None
    got, want = enumeration.build_hasse(n), scanned_hasse(n)
    pairs = itertools.chain(
        itertools.zip_longest(got.nodes, want.nodes),
        itertools.zip_longest(got.edges, want.edges),
    )
    return _check_all(
        pairs, lambda p: None if p[0] == p[1] else f"walk {p[0]} != scan {p[1]} at n={n}"
    )


def check_cover_local_vs_generic(n: int):
    universe = _asms(n)
    covers = generic_covers(universe)
    def pred(pair):
        (i, a), (j, b) = pair
        local = poset.try_cover(a, b) is not None
        generic = (i, j) in covers
        if local != generic:
            return f"cover criteria disagree ({local} vs {generic}) on pair\n{a}\n--\n{b}"
        return None
    return _check_all(itertools.product(enumerate(universe), repeat=2), pred)


def check_grading_and_reachability(n: int):
    beta = functools.cache(stats.beta_corner)  # once per matrix, not per edge end
    checked, failures = _check_all(
        _edges(n),
        lambda e: None
        if beta(e.upper) - beta(e.lower) == 1
        else f"cover with beta step != 1 at ({e.r}, {e.s}) on\n{e.lower}",
    )
    if bfs_cover_closure(n) != sorted(_asms(n), key=lambda a: a.entries):
        failures.append("cover closure from the identity misses matrices")
    return checked + 1, failures


def check_cover_deltas(n: int):
    # I and N by the definitions, once per matrix, not per edge end; 2H = 2I - N
    measured = functools.cache(lambda a: (stats.inversion_number(a), minus_count(a)))
    def pred(e: poset.CoverEdge):
        d_inv, d_minus = map(sub, measured(e.upper), measured(e.lower))
        d_weak2 = 2 * d_inv - d_minus
        reasons = []
        if d_inv not in (-1, 0, 1):
            reasons.append(f"dI = {d_inv} outside -1..1")
        if d_weak2 not in (-2, -1, 0, 1, 2):
            reasons.append(f"2*dH = {d_weak2} outside -2..2")
        if (d_inv, d_minus, d_weak2) != (e.d_inv, e.d_minus, e.d_weak2):
            reasons.append(
                f"type {e.cover_type} table row disagrees with measured deltas "
                f"({d_inv}, {d_minus}, {d_weak2})"
            )
        return f"{'; '.join(reasons)} at ({e.r}, {e.s})" if reasons else None
    return _check_all(_edges(n), pred)


def _order_pairs(n: int) -> Iterable[tuple[Asm, Asm]]:
    """All pairs of A_n for n <= 4; above that 10^4 seeded pairs, a third
    drawn independently and the rest one or two random covers apart, in
    either order, so covers and near-covers are tested too."""
    universe = _asms(n)
    if n <= 4:
        return itertools.product(universe, repeat=2)
    rng = random.Random(n)
    pairs = []
    for k in range(10_000):
        a = b = rng.choice(universe)
        if k % 3 == 0:
            b = rng.choice(universe)
        for _ in range(k % 3):
            up = _covers_up(b)
            if up:
                b = rng.choice(up).upper
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


def check_order_code_vs_dominance(n: int):
    def pred(pair):
        a, b = pair
        want = dominance_compare(a, b)
        got = compare(a, b)
        if got is not want:
            return f"compare gives {got.value}, dominance {want.value}, on pair\n{a}\n--\n{b}"
        if leq(a, b) != (want in (Ordering.LESS, Ordering.EQUAL)):
            return f"leq disagrees with dominance ({want.value}) on pair\n{a}\n--\n{b}"
        if poset.try_cover(a, b) != scanned_try_cover(a, b):
            return f"try_cover disagrees with the corner-sum scan on pair\n{a}\n--\n{b}"
        return None
    return _check_all(_order_pairs(n), pred)


def check_beta_code_popcount(n: int):
    # the popcount of the order code is beta(A) + K_n: each field has
    # its bit count minus c(i, j) bits set, and beta is the sum of min(i, j) - c(i, j)
    mins = [[min(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    k_n = core._field_bits(n) * n * n - sum(map(sum, mins))
    def pred(a: Asm):
        by_code = core._code(a).bit_count() - k_n
        by_sums = sum(
            m - c for ms, cs in zip(mins, core.corner_sum(a).sums) for m, c in zip(ms, cs)
        )
        beta = stats.beta_weighted(a)
        if by_code == by_sums == beta:
            return None
        return f"popcount - K_n = {by_code}, corner sums {by_sums}, beta {beta} on\n{a}"
    return _check_all(_asms(n), pred)


def check_duality_anti_automorphism(n: int):
    # each dual is built once, so its corner-sum table serves every pair
    pairs = itertools.combinations([(a, dual(a)) for a in _asms(n)], 2)
    def pred(pair):
        (a, da), (b, db) = pair
        if (compare(a, b) is Ordering.LESS) != (compare(db, da) is Ordering.LESS):
            return "row reversal is not order-reversing"
        return None
    return _check_all(pairs, pred)


def check_type_duality(n: int):
    star = {t.index: t.star for t in poset.COVER_TYPES}
    def pred(e: poset.CoverEdge):
        mirror = poset.try_cover(dual(e.upper), dual(e.lower))
        if mirror is None:
            return "dual pair is not a cover"
        reasons = []
        if mirror.cover_type != star[e.cover_type]:
            reasons.append(
                f"type {e.cover_type} dualizes to {mirror.cover_type}, "
                f"expected {star[e.cover_type]}"
            )
        # H(upper) - H(lower) is the same on an edge and its dual mirror
        if e.d_weak2 != mirror.d_weak2:
            reasons.append("dH changes across duality")
        return "; ".join(reasons) or None
    return _check_all(_edges(n), pred)


def check_transpose_order_iso(n: int):
    pairs = itertools.combinations([(a, transpose(a)) for a in _asms(n)], 2)
    def pred(pair):
        (a, ta), (b, tb) = pair
        if compare(a, b) != compare(ta, tb):
            return "transpose is not an order isomorphism"
        return None
    return _check_all(pairs, pred)


def check_beta_oracle(n: int):
    return _check_all(
        _asms(n),
        lambda a: None
        if beta_poset_oracle(a) == stats.beta_corner(a) == stats.beta_weighted(a)
        else f"join-irreducible count disagrees with formulas on\n{a}",
    )


def lattice_law_failure(a: Asm, b: Asm, c: Asm) -> Optional[str]:
    """The first lattice law that fails on (a, b, c), or None."""
    j, m = poset.join, poset.meet
    j_ab, m_ab, j_bc, m_bc = j(a, b), m(a, b), j(b, c), m(b, c)
    if j_ab != j(b, a) or m_ab != m(b, a):
        return "commutativity fails"
    if j(a, j_bc) != j(j_ab, c) or m(a, m_bc) != m(m_ab, c):
        return "associativity fails"
    if j(a, a) != a or m(a, a) != a:
        return "idempotence fails"
    if j(a, m_ab) != a or m(a, j_ab) != a:
        return "absorption fails"
    if m(a, j_bc) != j(m_ab, m(a, c)):
        return "distributivity fails"
    if j(a, m_bc) != m(j_ab, j(a, c)):
        return "dual distributivity fails"
    if not (leq(a, j_ab) and leq(b, j_ab) and leq(m_ab, a) and leq(m_ab, b)):
        return "join/meet are not bounds"
    return None


def check_lattice_laws(n: int):
    universe = _asms(n)
    if n <= 3:
        triples = list(itertools.product(universe, repeat=3))
    else:
        rng = random.Random(0)
        triples = [tuple(rng.choice(universe) for _ in range(3)) for _ in range(200)]
    return _check_all(triples, lambda t: lattice_law_failure(*t))


def check_bigrassmannian_join_irreducible(n: int):
    ji = {a for a in _asms(n) if poset.is_join_irreducible(a)}
    bg = {m for _, m in _bigrassmannians(n)}
    ok = ji == bg
    return len(_asms(n)), [] if ok else [f"join-irreducibles != bigrassmannians at n={n}"]


def check_bigrassmannian_construction(n: int):
    # one check per permutation (built iff it has one descent and its
    # inverse one), and one that the list is strictly lexicographic
    built = poset.enumerate_bigrassmannians(n)
    members = set(built)
    checked, failures = _check_all(
        iter_permutations(n),
        lambda w: None
        if (w in members) == poset.is_bigrassmannian(w)
        else f"{w}: block-swap construction and descent test disagree",
    )
    images = [w.images for w in built]
    if not all(x < y for x, y in zip(images, images[1:])):
        failures.append(f"bigrassmannians of S_{n} not in strict lexicographic order")
    return checked + 1, failures


def check_count_formula(n: int):
    # a size no other suite has cached is streamed, not kept
    got = len(_cache[n]) if n in _cache else sum(1 for _ in enumeration.iter_asms(n))
    want = enumeration.count_formula(n)
    return 1, [] if got == want else [f"enumerated {got}, formula gives {want}"]


def check_genfun_symmetries(n: int):
    failures = []
    gb = enumeration.genfun_stat(n, "beta")
    if not gb.is_palindromic():
        failures.append("beta generating polynomial is not palindromic")
    gh = enumeration.genfun_stat(n, "H")
    if not (gh.is_monic() and gh.is_palindromic() and gh.degree2() == 2 * (n * (n - 1) // 2)):
        failures.append("H generating polynomial is not monic/palindromic with top n(n-1)/2")
    if n == 3 and enumeration.genfun_stat(3, "I").is_palindromic():
        failures.append("I generating polynomial at n=3 unexpectedly palindromic")
    return 3 if n == 3 else 2, failures


def check_perm_inversion_genfun(n: int):
    got = enumeration.genfun_stat(n, "I", over="perm")
    want = HalfIntPolynomial.one()
    for k in range(1, n + 1):
        want = want * HalfIntPolynomial({2 * e: 1 for e in range(k)})
    return 1, [] if got == want else [f"permutation inversion polynomial wrong at n={n}"]


def check_genfun_at_one(n: int):
    failures = []
    for stat in ("I", "H", "beta"):
        if enumeration.genfun_stat(n, stat).evaluate_at_one() != enumeration.count_formula(n):
            failures.append(f"{stat} polynomial does not evaluate to the count at 1")
    return 3, failures


def enumerated_genfuns(
    universe: Iterable[Asm],
) -> dict[str, Union[HalfIntPolynomial, BivariatePolynomial]]:
    """The generating polynomials by enumeration, the reference for the
    vertex DP: each statistic ("I", "H", "beta") and pair ("I:beta",
    "H:beta") summed matrix by matrix, and "signed", the sum of
    (-1)^I q^beta.  I, N and beta are computed once per matrix."""
    polys: dict[str, Union[HalfIntPolynomial, BivariatePolynomial]] = {
        "I": HalfIntPolynomial.zero(),
        "H": HalfIntPolynomial.zero(),
        "beta": HalfIntPolynomial.zero(),
        "I:beta": BivariatePolynomial(),
        "H:beta": BivariatePolynomial(),
        "signed": HalfIntPolynomial.zero(var="q"),
    }
    for a in universe:
        inv, beta = stats.inversion_number(a), stats.beta_corner(a)
        weak = inv - Fraction(minus_count(a), 2)
        polys["I"].add_term(1, inv)
        polys["H"].add_term(1, weak)
        polys["beta"].add_term(1, beta)
        polys["I:beta"].add_term(1, inv, beta)
        polys["H:beta"].add_term(1, weak, beta)
        polys["signed"].add_term(-1 if inv % 2 else 1, beta)
    return polys


def check_genfun_dp_vs_enumeration(n: int):
    failures = []
    checked = 0
    for over, universe in (
        ("asm", _asms(n)),
        ("perm", map(from_permutation, iter_permutations(n))),
    ):
        want = enumerated_genfuns(universe)
        got = {s: enumeration.genfun_stat(n, s, over) for s in ("I", "H", "beta")}
        got.update({p: enumeration.bivariate_genfun(n, p, over) for p in ("I:beta", "H:beta")})
        if over == "perm":
            got["signed"] = enumeration.signed_identity_check(n)[1]
        for key, poly in got.items():
            checked += 1
            if poly != want[key]:
                failures.append(f"{key} over {over} at n={n}: DP {poly} != enumeration {want[key]}")
    return checked, failures


def check_signed_identity(n: int):
    ok, lhs, rhs = enumeration.signed_identity_check(n)
    return 1, [] if ok else [f"signed identity fails at n={n}: {lhs} != {rhs}"]


# (name, size cap, suite); caps keep the exhaustive sweeps tractable.
SUITES: list[tuple[str, int, Callable[[int], tuple[int, list[str]]]]] = [
    ("corner-sum-round-trip", 5, check_corner_sum_round_trip),
    ("transpose-dual-involutions", 5, check_involutions),
    ("permutation-embedding-valid", 6, check_permutation_embedding),
    ("corner-sum-invariants", 5, check_corner_sum_invariants),
    ("beta-three-way-equivalence", 6, check_beta_three_way),
    ("duality-identity", 6, check_duality_identity),
    ("stat-record-vs-definitions", 6, check_stat_record_vs_definitions),
    ("inversion-le-beta", 6, check_inversion_le_beta),
    ("dual-inversion-via-dual", 5, check_dual_inversion_via_dual),
    ("local-weak-sum", 5, check_local_weak_sum),
    ("permutation-beta-formula", 7, check_permutation_beta_formula),
    ("max-weak-inversion", 5, check_max_weak_inversion),
    ("cover-local-vs-generic", 4, check_cover_local_vs_generic),
    ("order-code-vs-dominance", 6, check_order_code_vs_dominance),
    ("beta-order-code-popcount", 6, check_beta_code_popcount),
    ("grading-and-reachability", 5, check_grading_and_reachability),
    ("cover-deltas-table", 5, check_cover_deltas),
    ("duality-anti-automorphism", 4, check_duality_anti_automorphism),
    ("cover-type-duality", 4, check_type_duality),
    ("transpose-order-isomorphism", 4, check_transpose_order_iso),
    ("beta-join-irreducible-count", 5, check_beta_oracle),
    ("lattice-laws", 4, check_lattice_laws),
    ("bigrassmannian-join-irreducible", 5, check_bigrassmannian_join_irreducible),
    ("bigrassmannian-construction", 7, check_bigrassmannian_construction),
    ("count-matches-formula", 7, check_count_formula),
    ("genfun-symmetries", 10, check_genfun_symmetries),
    ("perm-inversion-genfun", 7, check_perm_inversion_genfun),
    ("genfun-at-one", 10, check_genfun_at_one),
    ("signed-identity", 10, check_signed_identity),
    ("genfun-dp-vs-enumeration", 6, check_genfun_dp_vs_enumeration),
    ("hasse-vs-cover-scan", 6, check_hasse_vs_cover_scan),
]


@dataclass
class VerifyReport:
    n_max: int
    lines: list[str]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        out = list(self.lines)
        if self.failures:
            out.append("")
            out.append("FAILURES:")
            out.extend(f"  {msg}" for msg in self.failures)
        out.append("")
        out.append("all checks passed" if self.ok else "verification FAILED")
        return "\n".join(out)


def verify(n_max: int) -> VerifyReport:
    """Run every suite for sizes 1..min(cap, n_max); n_max must be >= 1.
    A suite that raises at size n counts one failed check there and stops."""
    core._require_size(n_max)
    lines = []
    all_failures = []
    for name, cap, suite in SUITES:
        checked = 0
        failures: list[str] = []
        for n in range(1, min(cap, n_max) + 1):
            try:
                c, f = suite(n)
            except Exception as exc:
                checked += 1
                failures.append(f"n={n}: {type(exc).__name__}: {exc}")
                break
            checked += c
            failures += f
        lines.append(f"{name}: {checked - len(failures)}/{checked}")
        all_failures += [f"{name}: {msg}" for msg in failures]
    return VerifyReport(n_max, lines, all_failures)
