import hashlib
import itertools
import json
import math

import pytest

from asmlat import (
    Permutation,
    TooLarge,
    bivariate_genfun,
    build_hasse,
    count_formula,
    enumerate_asms,
    from_permutation,
    genfun_stat,
    identity,
    is_join_irreducible,
    iter_asms,
    signed_identity_check,
    validate,
)
from asmlat.core import AsmError, minus_count
from asmlat.enumeration import (
    HasseEdge,
    HasseNode,
    _asm_counts,
    _corner_totals,
    _cover_table,
    _row_table,
    _vertex_sums,
    _walk_hasse,
)
from asmlat.io import _json_chunks
from asmlat.polynomials import BivariatePolynomial, HalfIntPolynomial
from asmlat.poset import CoverEdge, covers_up
from asmlat.stats import (
    Inversion,
    StatRecord,
    _entry_shares,
    _row_beta,
    beta_corner,
    classical_beta,
    inversion_list,
    inversion_number,
    stat_record,
)

from pathlib import Path

from conftest import walked_asms

GOLDEN = Path(__file__).parent / "golden"


def test_count_formula_values():
    assert [count_formula(n) for n in range(1, 8)] == [1, 2, 7, 42, 429, 7436, 218348]


def test_enumeration_no_duplicates_all_valid():
    for n in (3, 4, 5):
        pool = enumerate_asms(n)
        assert len(set(pool)) == len(pool)
        for a in pool:
            validate(a.entries)


def test_enumeration_order_lexicographic():
    for n in (3, 4):
        pool = enumerate_asms(n)
        assert pool == sorted(pool, key=lambda a: a.entries)


def test_enumeration_small():
    assert enumerate_asms(1) == [identity(1)]
    assert set(enumerate_asms(2)) == {
        identity(2),
        from_permutation(Permutation.from_images([2, 1])),
    }


def test_guard():
    with pytest.raises(TooLarge):
        enumerate_asms(6, limit_guard=100)
    # env var override
    import os

    os.environ["ASMLAT_GUARD"] = "5"
    try:
        with pytest.raises(TooLarge):
            enumerate_asms(4)
    finally:
        del os.environ["ASMLAT_GUARD"]


def test_guard_message_names_the_override():
    with pytest.raises(TooLarge, match=r"\|A_6\| = 7436 exceeds guard 100; .*--guard N.*ASMLAT_GUARD"):
        enumerate_asms(6, limit_guard=100)
    with pytest.raises(TooLarge, match=r"7\^2 \* 2\^8 DP steps = 12544 .*--guard N.*ASMLAT_GUARD"):
        genfun_stat(7, "I", over="perm", limit_guard=10)


def test_guard_message_without_a_guard_names_the_variable_alone(monkeypatch):
    # a caller that passed no guard has no --guard flag to raise
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    for make, what in ((enumerate_asms, "|A_4| = 42"), (build_hasse, "|A_4| = 42"),
                       (lambda n: genfun_stat(n, "I"), "4^2 * 2^5 DP steps = 512")):
        with pytest.raises(TooLarge) as info:
            make(4)
        assert str(info.value) == f"{what} exceeds guard 5; raise it with ASMLAT_GUARD"
    with pytest.raises(TooLarge) as info:
        enumerate_asms(4, limit_guard=5)
    assert str(info.value) == "|A_4| = 42 exceeds guard 5; raise it with --guard N or ASMLAT_GUARD"


def _factorial_product(n):
    # the closed form multiplied out, then one exact division: the oracle
    # for the ratio walk that count_formula and the guards read
    num = den = 1
    for i in range(n):
        num *= math.factorial(3 * i + 1)
        den *= math.factorial(n + i)
    assert num % den == 0
    return num // den


def test_guard_walk_gives_the_count_formula():
    want = [_factorial_product(n) for n in range(1, 61)]
    assert list(itertools.islice(_asm_counts(), 60)) == want
    assert [count_formula(n) for n in range(1, 61)] == want


def test_guard_message_bounds_a_size_too_long_to_print():
    # |A_296| has 9,955 digits and prints in full; |A_297| and the DP steps
    # at n = 10^6 are past 10^10000 and print as that bound
    with pytest.raises(TooLarge, match=r"\|A_296\| = \d{9955} exceeds guard 10; "):
        enumerate_asms(296, limit_guard=10)
    with pytest.raises(TooLarge, match=r"\|A_297\| >= 10\^10000 exceeds guard 10; .*--guard N"):
        enumerate_asms(297, limit_guard=10)
    with pytest.raises(TooLarge, match=r"^1000000\^2 \* 2\^1000001 DP steps >= 10\^10000 exceeds guard 10; "):
        genfun_stat(10**6, "I", limit_guard=10)
    # a guard too long for str() prints in full too
    with pytest.raises(TooLarge, match=r"\|A_300\| >= 10\^10000 exceeds guard 10{5000}; "):
        enumerate_asms(300, limit_guard=10**5000)
    # a size past sys.maxsize is refused the same way
    for make in (enumerate_asms, build_hasse):
        with pytest.raises(TooLarge, match=r"^\|A_9223372036854775808\| >= 10\^10000 exceeds guard 10000000; "):
            make(2**63)


def test_guard_rejects_bad_values(monkeypatch):
    with pytest.raises(AsmError, match="negative"):
        enumerate_asms(3, limit_guard=-1)
    for guard in ("5", 1e3, True):
        with pytest.raises(AsmError, match="not an integer") as info:
            enumerate_asms(3, limit_guard=guard)
        assert not isinstance(info.value, TooLarge)
    for env in ("abc", "-5", "1.5"):
        monkeypatch.setenv("ASMLAT_GUARD", env)
        with pytest.raises(AsmError, match="ASMLAT_GUARD") as info:
            enumerate_asms(3)
        assert not isinstance(info.value, TooLarge)


def test_genfun_inversions_n3():
    assert str(genfun_stat(3, "I")) == "1 + 2*λ + 3*λ^2 + λ^3"
    assert not genfun_stat(3, "I").is_palindromic()


def test_genfun_weak_n3_n4():
    assert str(genfun_stat(3, "H")) == "1 + 2*λ + λ^3/2 + 2*λ^2 + λ^3"
    assert str(genfun_stat(4, "H")) == (
        "1 + 3*λ + 2*λ^3/2 + 6*λ^2 + 6*λ^5/2 + 6*λ^3 + 6*λ^7/2"
        " + 6*λ^4 + 2*λ^9/2 + 3*λ^5 + λ^6"
    )


def test_genfun_bad_stat():
    from asmlat.core import AsmError

    with pytest.raises(AsmError):
        genfun_stat(3, "Q")


def test_genfun_bad_universe_and_pair():
    with pytest.raises(AsmError, match="unknown universe 'both'"):
        genfun_stat(3, "I", over="both")
    with pytest.raises(AsmError, match="unknown pair 'N:beta'"):
        bivariate_genfun(3, "N:beta")


def test_genfun_refuses_unhashable_names():
    # a list is refused as an unknown name, not looked up in a dict; the
    # refusals list the names the DP knows
    with pytest.raises(AsmError) as info:
        genfun_stat(3, ["I"])
    assert str(info.value) == "unknown statistic ['I']; expected I, H or beta"
    with pytest.raises(AsmError) as info:
        genfun_stat(3, "I", over=["asm"])
    assert str(info.value) == "unknown universe ['asm']; expected 'asm' or 'perm'"


def test_bivariate_trivial():
    for pair in ("I:beta", "H:beta"):
        p = bivariate_genfun(1, pair)
        assert p.items() == [((0, 0), 1)]


def test_bivariate_n2():
    p = bivariate_genfun(2, "I:beta")
    assert p.items() == [((0, 0), 1), ((2, 1), 1)]
    assert str(p) == "1 + λ*q"


def test_bivariate_specialized_matches_signed_identity():
    # the whole I:beta polynomial at λ = -1 is the oracle of the DP that
    # keeps only I's parity
    for n in range(1, 9):
        p = bivariate_genfun(n, "I:beta", over="perm").specialize_first(-1)
        ok, lhs, rhs = signed_identity_check(n)
        assert ok and lhs == p == rhs


def test_signed_dp_over_asms_is_i_beta_at_minus_one():
    # the signed identity's DP over ASMs, whose -1 entries take the down
    # move that permutations never do
    for n in range(1, 8):
        c = _vertex_sums(n, True, 0, 0, 1, signed=True)
        signed = HalfIntPolynomial({2 * b: v for b, v in c.items()}, var="q")
        assert signed == bivariate_genfun(n, "I:beta").specialize_first(-1)


def test_signed_dp_is_the_definitional_signed_sum():
    # weight 1 on I, N and beta, so both subtracted moves shift
    for n in range(1, 7):
        want = {}
        for a in walked_asms(n):
            inv = inversion_number(a)
            e = inv + minus_count(a) + beta_corner(a)
            want[e] = want.get(e, 0) + (-1) ** inv
        assert _vertex_sums(n, True, 1, 1, 1, signed=True) == {e: c for e, c in want.items() if c}


def test_signed_identity():
    _, lhs, _ = signed_identity_check(2)
    assert str(lhs) == "1 - q"
    _, lhs3, rhs3 = signed_identity_check(3)
    factored = (
        HalfIntPolynomial({0: 1, 2: -1}, var="q") ** 2
        * HalfIntPolynomial({0: 1, 4: -1}, var="q")
    )
    assert lhs3 == factored == rhs3


def test_build_hasse_counts():
    g2 = build_hasse(2)
    assert (len(g2.nodes), len(g2.edges)) == (2, 1)
    g3 = build_hasse(3)
    assert (len(g3.nodes), len(g3.edges)) == (7, 8)
    assert sum(node.join_irreducible for node in g3.nodes) == 4
    g4 = build_hasse(4)
    assert len(g4.nodes) == 42
    assert sum(node.join_irreducible for node in g4.nodes) == 10


def test_hasse_join_irreducible_flags():
    for n in range(1, 6):
        for node in build_hasse(n).nodes:
            assert node.join_irreducible == is_join_irreducible(node.matrix)


def test_hasse_graded_by_beta():
    g = build_hasse(4)
    for e in g.edges:
        lo = g.nodes[e.lower].record.beta
        hi = g.nodes[e.upper].record.beta
        assert hi == lo + 1


def test_hasse_dot_golden():
    for n in (2, 3):
        want = (GOLDEN / f"hasse_n{n}.dot").read_text()
        assert build_hasse(n).to_dot(highlight_ji=True) == want


def test_hasse_json_shape():
    d = build_hasse(2).to_json_dict()
    assert d["n"] == 2
    assert len(d["nodes"]) == 2 and len(d["edges"]) == 1
    assert d["nodes"][0]["stats"]["beta"] in (0, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_hasse_json_chunks_are_the_json_text(n):
    graph = build_hasse(n)
    nodes = ((a.entries, record, ji) for a, record, ji in graph.nodes)
    assert "".join(_json_chunks(n, nodes, graph.edges)) == json.dumps(graph.to_json_dict()) + "\n"


@pytest.mark.parametrize("n", range(1, 7))
def test_hasse_walk_is_the_graph_as_plain_data(n):
    # the command writes from the walk, the library wraps it
    nodes, edges = _walk_hasse(n, None)
    nodes = list(nodes)
    graph = build_hasse(n)
    assert nodes == [(node.matrix.entries, node.record, node.join_irreducible) for node in graph.nodes]
    assert edges == [tuple(edge) for edge in graph.edges]
    # exact tuples of ints, which the cyclic collector stops scanning, and
    # nodes as io's writers take them: exact (rows, record, bool) tuples
    assert all(type(edge) is tuple for edge in edges)
    for node in nodes:
        assert type(node) is tuple and type(node[0]) is tuple and type(node[2]) is bool


def test_hasse_nodes_and_edges_are_immutable_tuples():
    graph = build_hasse(3)
    assert HasseNode._fields == ("matrix", "record", "join_irreducible")
    assert HasseEdge._fields == ("lower", "upper", "cover_type")
    node, edge = graph.nodes[-1], graph.edges[0]
    for item, field in ((node, "join_irreducible"), (edge, "cover_type")):
        with pytest.raises(AttributeError):
            setattr(item, field, 0)
    assert HasseNode(node.matrix, node.record, join_irreducible=node.join_irreducible) == node
    # the one difference from the dataclasses they replaced
    assert edge == (edge.lower, edge.upper, edge.cover_type)


# repr, hash and JSON recorded when these records were frozen dataclasses,
# whose repr and hash the named tuples reproduce field for field
RECORD_PINS = [
    (
        StatRecord,
        lambda a, m: stat_record(a),
        ("inv", "dual_inv", "minus", "weak2", "beta"),
        "StatRecord(inv=5, dual_inv=3, minus=2, weak2=8, beta=7)",
        -2394432289143050590,
        {"I": 5, "Istar": 3, "N": 2, "H2": 8, "beta": 7},
    ),
    (
        CoverEdge,
        lambda a, m: covers_up(m)[0],
        ("lower", "upper", "r", "s", "cover_type", "d_inv", "d_minus", "d_weak2"),
        "CoverEdge(lower=Asm(n=3, entries=((0, 1, 0), (1, -1, 1), (0, 1, 0))), "
        "upper=Asm(n=3, entries=((0, 0, 1), (1, 0, 0), (0, 1, 0))), "
        "r=1, s=2, cover_type=3, d_inv=0, d_minus=-1, d_weak2=1)",
        2773844897846881604,
        {"r": 1, "s": 2, "type": 3, "dI": 0, "dN2x": -1, "dH2x": 1},
    ),
    (
        Inversion,
        lambda a, m: inversion_list(a)[0],
        ("i", "j", "k", "l", "sign", "weight"),
        "Inversion(i=1, j=2, k=2, l=3, sign=1, weight=1)",
        -563734695648125648,
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, build, fields, text, digest, json_dict",
    RECORD_PINS,
    ids=[pin[0].__name__ for pin in RECORD_PINS],
)
def test_records_are_immutable_tuples_with_the_dataclass_outputs(
    example_a, middle3, cls, build, fields, text, digest, json_dict
):
    record = build(example_a, middle3)
    assert type(record) is cls and isinstance(record, tuple)
    assert cls._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert repr(record) == text
    assert hash(record) == digest
    if json_dict is not None:
        assert record.to_json_dict() == json_dict


def test_iter_asms_streams():
    it = iter_asms(5)
    first = next(it)
    assert first.n == 5
    assert 1 + sum(1 for _ in it) == 429


def _bits(mask, n):
    """A column state of the row table, a mask with column j at bit
    j - 1, as its 0/1 tuple."""
    return tuple(mask >> j & 1 for j in range(n))


def _beta_share(i, new):
    """Row i's share of beta by its definition, sum_j (min(i, j) -
    c(i, j)), given the column state after the row as a 0/1 tuple, whose
    running sums are the c(i, j)."""
    return sum(min(i, j) - c for j, c in enumerate(itertools.accumulate(new), 1))


def test_row_table_paths_count_matrices():
    for n in range(1, 11):
        table = {_bits(col, n): steps for col, steps in _row_table(n).items()}
        paths = {(1,) * n: 1}  # paths from each state to the last
        for col in sorted(table, key=sum, reverse=True)[1:]:
            paths[col] = sum(paths[_bits(step.new, n)] for step in table[col])
        assert paths[(0,) * n] == count_formula(n)


def test_row_table_forces_the_last_row():
    # the walks finish each matrix at row n - 1: each of the n states with
    # n - 1 columns at 1 has one step, a single +1 in its column at 0, and
    # it leads to the all-ones state
    for n in range(1, 9):
        forced = {col: steps for col, steps in _row_table(n).items() if col.bit_count() == n - 1}
        assert len(forced) == n
        for col, steps in forced.items():
            (step,) = steps
            assert step.row == tuple(1 - bit for bit in _bits(col, n))
            assert _bits(step.new, n) == (1,) * n


def test_vertex_dp_counts_matrices():
    for n in range(1, 11):
        # with every weight at 0 the DP counts paths, and the whole count
        # sits in one field
        assert _vertex_sums(n, True, 0, 0, 0) == {0: count_formula(n)}
        assert _vertex_sums(n, False, 0, 0, 0) == {0: math.factorial(n)}


# sha256 of str(poly) + "\n" + its JSON, recorded with the coefficient-map
# DP that packed polynomials replaced; the fields are wider here than at
# n <= 7
_BIG_DIGESTS = {
    (8, "asm", "I"): "92d5c0c2f954812fd844a56d9df6f2b8bddf3a34127e3779db2fd1b370a0e4f2",
    (8, "asm", "H"): "b81b2cbe261cf39816fb735b1b74a66f06fd9dc99bd02c3d284a7fe30cff8b4a",
    (8, "asm", "beta"): "886b06c0e1ece111ede6fe2415a723bd5ccdf0a09bc71dcf4b198575346c914b",
    (8, "asm", "I:beta"): "f4c1ae4d4551384302d3e9ffca32dca21512b4164e5b8d7c3b73751242912c00",
    (8, "asm", "H:beta"): "b355444a0715f7a1eb668ba2055674d6e33f199bd1a83ee24d53723a51adfea3",
    (9, "perm", "I"): "06ce2f584d04aa558eb12b45e93e288cd8bd58cbaaebb1cc11766383703e067a",
    (9, "perm", "H"): "06ce2f584d04aa558eb12b45e93e288cd8bd58cbaaebb1cc11766383703e067a",
    (9, "perm", "beta"): "7fde0ff494033c4b80aad20070afc9665e2b785a4147eda3f2c22c36e8f19916",
    (9, "perm", "I:beta"): "8b827c3fd370f870c7087751ed7617648a90bf036cdb8d7153c862e3c2d8ab1a",
    (9, "perm", "H:beta"): "8b827c3fd370f870c7087751ed7617648a90bf036cdb8d7153c862e3c2d8ab1a",
}

# the same, recorded from the vertex DP that built a second dict per
# position; nothing else checks whole polynomials past n = 9
_WIDE_DIGESTS = {
    (10, "asm", "I"): "4052ab5824ac49b0f157b87c09a3f3014b1cc100de80c0269ed4aa763197b35e",
    (10, "asm", "H"): "e1fa4849282e83b6e651466025c4cd29235bab015fe773cb6c1a98d7b80e540d",
    (10, "asm", "beta"): "6110540636296b7989be71056f55a77a8d786c3379902723099c2d936c41120b",
    (10, "asm", "I:beta"): "18e193a0fdf351a35f815cf7f1d777b3d03c1669d8a74ef0b75e21f6720f08d2",
    (11, "asm", "I"): "356061c7d14723bbfabf5e79aa4d4541697031da63582324d9d179b8a10c9574",
    (11, "asm", "H"): "27f618d505021b5b60d8eec2912537cd3766565704913afcdf04f88068e2997d",
    (11, "asm", "beta"): "1936d46d83a76d4908db2293aef988b251e08d701a4753864e0d996904fb5f84",
    (11, "asm", "I:beta"): "27e5289309b36e1698d412e0e04ab3132637cd93bdb1a60a8a3d952c57251430",
    (12, "asm", "I"): "d38c6e946f76d185a4023898902e084a0d4cb342026fd3bb80ce7385aeafb89d",
    (12, "asm", "H"): "e0572b4b625c44e44e8b7e16adb4f7a3ea76defe5ff678fffadd3d0aa22a7d30",
    (12, "asm", "beta"): "96740a4ba09e0ff392d9b31020509bfb0020641cf13829c8df9b7a3758a611cf",
    (10, "perm", "I"): "0aa31e53da252e3245ca24335493a973d675dc9a0791103b21c110a7857d7ece",
    (10, "perm", "H"): "0aa31e53da252e3245ca24335493a973d675dc9a0791103b21c110a7857d7ece",
    (10, "perm", "beta"): "8f2ace1dab62849a260d0b98d841ed6db7f05bae8317ba86d1c1a0f92e2493fb",
    (10, "perm", "I:beta"): "72dff7a13b4b3ece74bfe5a7ac2224b0d8aaae1c905de77258891134fbe1e955",
    (11, "perm", "I"): "b6498aa791981aa87e6c25e65f9d6cf50745ae492e0d29dcbf8b3e232caee8fc",
    (11, "perm", "H"): "b6498aa791981aa87e6c25e65f9d6cf50745ae492e0d29dcbf8b3e232caee8fc",
    (11, "perm", "beta"): "f90f414c4f191bef76bcf5d58832f58ed0c1561fbcf1156018b2b63726fc4d35",
    (11, "perm", "I:beta"): "033374ff66095b02a93a8d31897ba22bebc96c9978d37e66e327392f9555b059",
}
_PINNED = _BIG_DIGESTS | _WIDE_DIGESTS


@pytest.mark.parametrize("n, over, what", sorted(_PINNED))
def test_genfun_output_pinned_past_seven(n, over, what):
    genfun = bivariate_genfun if ":" in what else genfun_stat
    poly = genfun(n, what, over, limit_guard=10**30)
    text = f"{poly}\n{json.dumps(poly.to_json_dict())}"
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED[n, over, what]


@pytest.mark.parametrize("minus", [True, False], ids=["asm", "perm"])
def test_vertex_dp_pairs_both_bits_at_one(minus):
    # the vertex DP's moves on key sets alone: at every position, a state
    # with both bits at 1 has its partner with both at 0, which is why the
    # DP updates each pair once and in place and never adds a state by -1
    for n in range(1, 11):
        row_bit = 1 << n
        layer = {0}
        for _ in range(n):
            for k in range(n):
                flip = row_bit | 1 << k
                nxt = set()
                for state in layer:
                    if not state & flip:
                        nxt |= {state, state | flip}  # entry 0 or 1
                    elif state & flip == flip:
                        assert state ^ flip in layer, (n, k, state)
                        nxt.add(state)  # entry 0
                        if minus:
                            nxt.add(state ^ flip)  # entry -1
                    else:
                        nxt.add(state)  # entry 0
                layer = nxt
            layer = {state ^ row_bit for state in layer if state & row_bit}
        assert layer == {row_bit - 1}


def test_row_deltas_never_negative():
    # every step's shares are >= 0, and its beta share is the definition's
    # over its new state
    for n in range(1, 9):
        for col, steps in _row_table(n).items():
            i = 1 + sum(_bits(col, n))
            for step in steps:
                assert step.d_inv >= 0 and 2 * step.d_inv - step.d_minus >= 0
                assert step.d_beta == _beta_share(i, _bits(step.new, n)) >= 0


def test_vertex_shares_never_negative():
    # every move of the vertex DP: entry e at a position entered with
    # running row sum `left` and column sum `above`, both kept in {0, 1}
    for left, above, e in itertools.product((0, 1), (0, 1), (-1, 0, 1)):
        if left + e not in (0, 1) or above + e not in (0, 1):
            continue
        d_inv, d_minus = _entry_shares(left, above, int(e == -1))
        assert (d_inv, d_minus) == (left * above, int(e == -1))
        assert d_inv >= 0 and d_minus >= 0 and 2 * d_inv - d_minus >= 0
    # and every row's beta share, from any column state with sum i
    for n in range(1, 9):
        for new in itertools.product((0, 1), repeat=n):
            i = sum(new)
            if i:
                assert _row_beta(i, n, sum(itertools.accumulate(new))) == _beta_share(i, new) >= 0


def test_corner_totals_match_definition():
    # the one table of corner-sum totals that the row table and the vertex
    # DP read: each state's sum of the running sums of its bits
    for n in range(1, 11):
        totals = _corner_totals(n)
        assert len(totals) == 1 << n
        for m, total in enumerate(totals):
            assert total == sum(itertools.accumulate(_bits(m, n)))


def test_row_table_matches_brute_force():
    # every state's steps are the rows of {-1, 0, 1}^n, in lexicographic
    # order, whose running sums stay in {0, 1}, whose total is 1 and
    # which keep the state in {0, 1}
    for n in range(1, 8):
        rows = [
            row
            for row in itertools.product((-1, 0, 1), repeat=n)
            if set(itertools.accumulate(row)) <= {0, 1} and sum(row) == 1
        ]
        table = {_bits(col, n): steps for col, steps in _row_table(n).items()}
        assert set(table) == set(itertools.product((0, 1), repeat=n))
        for col, steps in table.items():
            want = [row for row in rows if all(c + r in (0, 1) for c, r in zip(col, row))]
            assert [step.row for step in steps] == want
            assert [_bits(step.new, n) for step in steps] == [
                tuple(map(sum, zip(col, row))) for row in want
            ]


# sha256 of the cover table's (state, covers) pairs, each state as its
# 0/1 tuple and sorted by it, recorded when the table still looked each
# exchanged row up among a state's steps and keyed its states by
# tuples; the Hasse diagram is checked against the cover scan only up
# to n = 6
_COVER_TABLE_SHA256 = {
    7: "482e0dbae6434c21c0a315e5ae5ab3cdc23770e1a13a97a47ca670a698ed3782",
    8: "f44b0d228f97ab6f43578e0c3fa77545cffc87cbb3fcdf4fcf9369d4293901b2",
}


@pytest.mark.parametrize("n", sorted(_COVER_TABLE_SHA256))
def test_cover_table_pinned(n):
    text = repr(sorted((_bits(p, n), covers) for p, covers in _cover_table(n).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == _COVER_TABLE_SHA256[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_genfun_matches_brute_force(n):
    # over S_n by its one-line notation alone: inversions, and beta by the
    # 2011 permutation formula
    want_i, want_beta, want_pair = {}, {}, {}
    for images in itertools.permutations(range(1, n + 1)):
        inv = sum(x > y for x, y in itertools.combinations(images, 2))
        beta = classical_beta(images)
        for want, key in ((want_i, 2 * inv), (want_beta, 2 * beta), (want_pair, (2 * inv, beta))):
            want[key] = want.get(key, 0) + 1
    assert genfun_stat(n, "I", "perm") == genfun_stat(n, "H", "perm") == HalfIntPolynomial(want_i)
    assert genfun_stat(n, "beta", "perm") == HalfIntPolynomial(want_beta)
    for pair in ("I:beta", "H:beta"):
        assert bivariate_genfun(n, pair, "perm") == BivariatePolynomial(want_pair)


def test_row_table_deltas_sum_to_statistics(pools):
    # along the rows of a matrix the table's deltas add up to I, N and beta
    for n in (3, 4, 5):
        table = _row_table(n)
        for a in pools[n]:
            col, total = 0, [0, 0, 0]
            for row in a.entries:
                (step,) = [s for s in table[col] if s.row == row]
                total = [total[0] + step.d_inv, total[1] + step.d_minus, total[2] + step.d_beta]
                col = step.new
            assert total == [inversion_number(a), minus_count(a), beta_corner(a)]


def test_genfun_guard_counts_dp_steps():
    # the DP lists no matrix: the guard bounds its n^2 * 2^(n + 1) steps
    # in either universe, not |A_n| or n!
    with pytest.raises(TooLarge, match=r"5\^2 \* 2\^6 DP steps = 1600 exceeds guard 1599"):
        genfun_stat(5, "beta", limit_guard=1599)
    assert genfun_stat(5, "beta", limit_guard=1600).evaluate_at_one() == 429
    with pytest.raises(TooLarge, match=r"= 1600 exceeds guard 1599"):
        bivariate_genfun(5, "I:beta", over="perm", limit_guard=1599)
    # the default 10^7 admits n <= 14, though |A_8| is above it already
    assert count_formula(8) > 10**7
    assert genfun_stat(8, "I", limit_guard=10**7).evaluate_at_one() == count_formula(8)
    assert 14**2 * 2**15 <= 10**7 < 15**2 * 2**16
    with pytest.raises(TooLarge, match=r"15\^2 \* 2\^16 DP steps = 14745600 exceeds guard 10000000"):
        signed_identity_check(15, limit_guard=10**7)


@pytest.mark.parametrize("stat", ["I", "H", "beta"])
def test_genfun_at_twelve(stat):
    # past every size the enumeration reaches: the coefficients still sum
    # to |A_12|, and the beta and H polynomials are palindromic
    poly = genfun_stat(12, stat)
    assert poly.evaluate_at_one() == count_formula(12)
    assert poly.is_palindromic() == (stat != "I")


@pytest.mark.parametrize("n", [-1, 0])
def test_signed_identity_rejects_size_below_one(n):
    with pytest.raises(AsmError, match=f"size {n} must be positive"):
        signed_identity_check(n)
