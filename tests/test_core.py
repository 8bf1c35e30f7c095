import dataclasses
import functools
import itertools
import random
import sys
import threading

import pytest

import asmlat
from asmlat import (
    Asm,
    AsmError,
    BadPartialSum,
    BadTotalSum,
    EntryOutOfRange,
    InvalidCornerSums,
    NotAPermutation,
    NotSquare,
    Permutation,
    corner_sum,
    dual,
    from_corner_sum,
    from_permutation,
    identity,
    minus_count,
    to_permutation,
    transpose,
    validate,
)
from asmlat import core
from asmlat.core import IndexOutOfRange, check_corner_sums, iter_permutations

from conftest import EXAMPLE_A_ROWS, clear_row_memos, outcome, walked_asms


def test_validate_example_a(example_a):
    assert example_a.n == 4
    assert example_a.entry(2, 3) == -1


def test_validate_identity():
    assert validate([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == identity(3)


def test_validate_bad_total_sum():
    with pytest.raises(BadTotalSum, match="row 1 sums to 0"):
        validate([[1, -1], [0, 1]])


def test_validate_entry_range():
    with pytest.raises(EntryOutOfRange, match=r"\(1, 2\)"):
        validate([[0, 2], [1, -1]])


def test_validate_rejects_non_int_entries():
    # no silent coercion: a float or a bool is not an entry, even 1.0 or True
    for bad in (1.9, 1.0, True):
        with pytest.raises(EntryOutOfRange, match=r"\(1, 1\)"):
            validate([[bad]])
    with pytest.raises(EntryOutOfRange, match=r"\(2, 1\)"):
        validate([[1, 0], [False, 1]])


def test_validate_partial_sum():
    # row prefix dips below 0 at (1, 1)
    with pytest.raises(BadPartialSum, match=r"\(1, 1\)"):
        validate([[-1, 1], [1, 0]])


def test_validate_not_square():
    with pytest.raises(NotSquare):
        validate([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(NotSquare):
        validate([])


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[1, 0], [1, 0]], BadPartialSum, "column prefix sum 2 at (2, 1)"),
        ([[1, -1, 1], [0, 1, 0], [0, 1, 0]], BadPartialSum, "column prefix sum -1 at (1, 2)"),
        # column 2 totals 0, so another column totals 2 and its prefix
        # reaches 2 first: a column total other than 1 always shows there
        ([[0, 1, 0], [1, 0, 0], [1, 0, 0]], BadPartialSum, "column prefix sum 2 at (3, 1)"),
        # (2, 1) breaks a column prefix first, but the row rules come first
        ([[1, 0], [1, 1]], BadPartialSum, "row prefix sum 2 at (2, 2)"),
        # ragged and non-int: the type is checked before the shape
        ([[1], [0, "x"]], EntryOutOfRange, "entry 'x' at (2, 2) is not an integer"),
        ([[1, 0], [0, 10**20]], EntryOutOfRange,
         "entry 100000000000000000000 at (2, 2) not in {-1, 0, 1}"),
        # row 3 keeps every row rule and breaks only its last column prefix
        ([[0, 0, 1], [0, 1, 0], [0, 0, 1]], BadPartialSum, "column prefix sum 2 at (3, 3)"),
    ],
)
def test_validate_messages(rows, error, message):
    with pytest.raises(error) as info:
        validate(rows)
    assert str(info.value) == message


def _mutate(rng, rows):
    """One random defect: an entry out of range, an entry moved by one, two
    entries of a row swapped, an exchange block of either sign, a ragged
    row, or an entry that is a bool, float or str.  A defect that does not
    fit rows an earlier one left ragged or non-int is skipped."""
    n = len(rows)
    i = rng.randrange(n)
    row = rows[i]
    if not row:
        row.append(0)
    j, k = rng.randrange(len(row)), rng.randrange(len(row))
    kind = rng.randrange(6)
    if kind == 0:
        row[j] = rng.choice([-3, -2, 2, 3, 10**20])
    elif kind == 1 and type(row[j]) is int:
        row[j] += rng.choice([-1, 1])
    elif kind == 2:
        row[j], row[k] = row[k], row[j]
    elif kind == 3 and i + 1 < n and j + 1 < min(len(row), len(rows[i + 1])):
        block = (row[j], row[j + 1], rows[i + 1][j], rows[i + 1][j + 1])
        if all(type(x) is int for x in block):
            sign = rng.choice([-1, 1])
            row[j] -= sign
            row[j + 1] += sign
            rows[i + 1][j] += sign
            rows[i + 1][j + 1] -= sign
    elif kind == 4:
        if rng.random() < 0.5:
            del row[j]
        else:
            row.append(rng.choice([0, 1]))
    elif kind == 5:
        row[j] = rng.choice([True, False, 1.0, 0.0, "1", "0"])


def test_validate_matches_entrywise_scan_on_malformed_input():
    # validate's row checks against the corner-sum characterization
    # (Robbins-Rumsey): a square integer matrix is an ASM iff its corner
    # sums step by 0 or 1 and end in 1..n along the last row and column
    rng = random.Random(2019)
    malformed = 0
    for _ in range(12_000):
        rows = [list(row) for row in rng.choice(walked_asms(rng.randint(1, 6))).entries]
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, rows)
        got = outcome(validate, rows)
        square = all(len(row) == len(rows) for row in rows)
        if square and all(type(x) is int for row in rows for x in row):
            want = outcome(check_corner_sums, core._prefix_sums(rows))
            assert isinstance(got, Asm) == isinstance(want, core.CornerSumMatrix), rows
        if isinstance(got, Asm):
            assert got == Asm(len(rows), tuple(map(tuple, rows)))
        else:
            malformed += 1
    assert malformed >= 10_000


def _scanned(raw):
    """validate as a plain row-major scan, the form the row memo replaced:
    the int check, the shape, then row by row its entries and running sums,
    its total and its column prefix sums."""
    rows = [list(row) for row in raw]
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if type(x) is not int:
                raise EntryOutOfRange(f"entry {x!r} at ({i}, {j}) is not an integer")
    n = len(rows)
    if n == 0:
        raise NotSquare("empty matrix")
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise NotSquare(f"row {i} has {len(row)} entries, expected {n}")
    col = [0] * n
    for i, row in enumerate(rows, start=1):
        total = 0
        for j, v in enumerate(row, start=1):
            if v not in (-1, 0, 1):
                raise EntryOutOfRange(f"entry {v} at ({i}, {j}) not in {{-1, 0, 1}}")
            total += v
            if total not in (0, 1):
                raise BadPartialSum(f"row prefix sum {total} at ({i}, {j})")
        if total != 1:
            raise BadTotalSum(f"row {i} sums to {total}, expected 1")
        for j, v in enumerate(row, start=1):
            col[j - 1] += v
            if col[j - 1] not in (0, 1):
                raise BadPartialSum(f"column prefix sum {col[j - 1]} at ({i}, {j})")
    return Asm(n, tuple(map(tuple, rows)))


def _is_asm_row(row):
    sums = list(itertools.accumulate(row))
    return all(type(x) is int for x in row) and set(sums) <= {0, 1} and sums[-1] == 1


def test_validate_answers_alike_with_a_cold_or_warm_row_memo():
    # the plain scan's matrix or its exact error, whether the row memo is
    # emptied before each call, holds the rows of the call before, or holds
    # every row of A_1 ... A_6 and of all the inputs before
    rng = random.Random(30)
    cases = []
    for _ in range(3000):
        rows = [list(row) for row in rng.choice(walked_asms(rng.randint(1, 6))).entries]
        for _ in range(rng.randint(0, 2)):
            _mutate(rng, rows)
        cases.append(rows)
    want = [outcome(_scanned, rows) for rows in cases]
    assert sum(isinstance(w, tuple) for w in want) > 1500
    for rows, w in zip(cases, want):
        clear_row_memos()
        assert outcome(validate, rows) == w, rows
        assert outcome(validate, rows) == w, rows
    for n in range(1, 7):
        for a in walked_asms(n):
            validate(a.entries)
    for rows, w in zip(cases, want):
        assert outcome(validate, rows) == w, rows
    # only rows of ints that pass their own checks were stored
    assert core._ROWS and all(map(_is_asm_row, core._ROWS))


def test_the_row_memo_is_read_only_after_the_int_check():
    # (True,) == (1,) == (1.0,) with equal hashes: a bool or float entry
    # must be refused before any row is looked up
    validate([[1]])
    validate([[0, 1], [1, 0]])
    assert (1,) in core._ROWS and (0, 1) in core._ROWS
    for bad in (True, 1.0):
        with pytest.raises(EntryOutOfRange, match=r"^entry .* at \(1, 1\) is not an integer$"):
            validate([[bad]])
    with pytest.raises(EntryOutOfRange, match=r"\(1, 1\) is not an integer"):
        validate([[False, True], [1, 0]])
    assert all(type(x) is int for row in core._ROWS for x in row)


def _asm_rows(n):
    """Every row of an ASM of size n: nonzero entries +1, -1, ..., +1."""
    for k in range(1, n + 1, 2):
        for cols in itertools.combinations(range(n), k):
            row = [0] * n
            for t, j in enumerate(cols):
                row[j] = -1 if t % 2 else 1
            yield tuple(row)


def test_row_memos_stay_within_their_bound():
    # 2^13 distinct rows of size 14, more entries than the bound: the memo
    # is cleared when full and never holds more than _HELD entries, and a
    # row's code fields, filled in its one entry, add none
    clear_row_memos()
    rows = list(_asm_rows(14))
    assert len(rows) == 2**13 and len(set(rows)) == 2**13
    assert 14 * len(rows) > 4 * core._HELD
    memo, seen = core._ROWS, []
    for row in rows:
        record = core._row_record(row)
        assert record is not None and memo[row] is record
        core._row_zeros(14, record)
        seen.append(len(memo))
        assert memo.held <= core._HELD
    per_fill = core._HELD // 14
    assert memo.held == 14 * len(memo) == sum(map(len, memo))
    assert max(seen) == per_fill
    # filled from empty once, then once after each clear
    assert seen.count(1) == -(-len(rows) // per_fill)
    # a failing row is not stored; a row longer than the bound is not either
    assert core._row_record((1, 1, -1)) is None and (1, 1, -1) not in core._ROWS
    memo = core._RowMemo()
    memo.keep("short", 1, 3)
    # a key stored already (by another thread) keeps its value and its count
    assert memo.keep("short", 9, 3) == 1
    assert memo.keep("long", 2, core._HELD + 1) == 2
    assert memo == {"short": 1} and memo.held == 3


def test_identity_sizes():
    assert identity(1) == Asm(1, ((1,),))
    assert identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(NotSquare):
        identity(0)


@pytest.mark.parametrize(
    "call, n, error",
    [
        (asmlat.count_formula, 3.0, AsmError),
        (asmlat.count_formula, True, AsmError),
        (asmlat.iter_asms, 2.5, AsmError),
        (asmlat.verify, 2.0, AsmError),
        (asmlat.verify, 0, AsmError),
        (asmlat.build_hasse, "3", AsmError),
        (asmlat.enumerate_asms, False, AsmError),
        (asmlat.signed_identity_check, True, AsmError),
        (asmlat.enumerate_bigrassmannians, -1, AsmError),
        (asmlat.enumerate_bigrassmannians, 2.0, AsmError),
        (identity, 1.5, NotSquare),
        (identity, -2, NotSquare),
        (Permutation.identity, 0, NotAPermutation),
        (Permutation.identity, True, NotAPermutation),
        (Permutation.longest, -2, NotAPermutation),
        (iter_permutations, -1, NotAPermutation),
        (iter_permutations, 2.5, NotAPermutation),
    ],
)
def test_size_must_be_a_positive_int(call, n, error):
    # one check in core: a float, str or bool size is a domain error, not
    # a TypeError and not size 1
    with pytest.raises(error, match="not an integer" if type(n) is not int else "must be positive"):
        call(n)


@pytest.mark.parametrize("i, j", [(True, 1), (1, False), (1.0, 1), (2, "1"), (0, 1), (1, 5)])
def test_position_must_be_an_int_in_range(example_a, i, j):
    # no silent coercion: True is not row 1, and 1.0 is not a position
    for call in (example_a.entry, functools.partial(asmlat.local_weak_contribution, example_a)):
        with pytest.raises(IndexOutOfRange, match=r"outside 1\.\.4"):
            call(i, j)


def test_from_permutation_3412():
    a = from_permutation(Permutation.from_images([3, 4, 1, 2]))
    assert a.entries == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def test_from_permutation_identity_and_reversal():
    assert from_permutation(Permutation.identity(4)) == identity(4)
    w0 = from_permutation(Permutation.longest(3))
    assert w0.entries == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_to_permutation_round_trip():
    for w in iter_permutations(4):
        assert to_permutation(from_permutation(w)) == w


def test_to_permutation_rejects_minus(example_a):
    with pytest.raises(NotAPermutation):
        to_permutation(example_a)


def test_corner_sum_identity():
    assert corner_sum(identity(3)).sums == ((1, 1, 1), (1, 2, 2), (1, 2, 3))


def test_corner_sum_231():
    a = from_permutation(Permutation.from_images([2, 3, 1]))
    assert corner_sum(a).sums == ((0, 1, 1), (0, 1, 2), (1, 2, 3))


def test_corner_sum_213():
    a = from_permutation(Permutation.from_images([2, 1, 3]))
    assert corner_sum(a).sums == ((0, 1, 1), (1, 2, 2), (1, 2, 3))


def test_corner_sum_example_a(example_a):
    assert corner_sum(example_a).sums == (
        (0, 0, 1, 1),
        (0, 1, 1, 2),
        (1, 1, 2, 3),
        (1, 2, 3, 4),
    )


def test_from_corner_sum_round_trip(example_a):
    assert from_corner_sum(corner_sum(example_a)) == example_a


@pytest.mark.parametrize("n", range(1, 7))
def test_decoding_inverts_encoding(n):
    # the decoder rebuilds every matrix from its order code alone and keeps
    # that code as the result's memo
    for a in walked_asms(n):
        k = core._code(a)
        x = core._from_code(n, k)
        assert x == a
        assert vars(x)[core._CODE] == k


def test_row_memos_keep_their_count_under_threads():
    # four threads on two cores store overlapping rows while the memos
    # fill and clear: a lost update of the count would show
    clear_row_memos()
    rows = list(_asm_rows(14))

    def store(part):
        for row in part:
            core._row_zeros(14, core._row_record(row))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=store, args=(rows[k::3] + rows[:500],)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert core._ROWS.held == sum(map(len, core._ROWS)) <= core._HELD


def _thermometer_code(a):
    """The order code by its definition, as it was encoded from the corner
    sums: each c(i, j) of ``corner_sum(a)``, row-major, as a field of
    8 * (n // 8 + 1) bits with bits c and up set, the fields joined as
    bytes."""
    w = a.n // 8 + 1
    fields = [((1 << 8 * w) - (1 << c)).to_bytes(w, "big") for c in range(a.n + 1)]
    return int.from_bytes(b"".join(fields[c] for row in corner_sum(a).sums for c in row), "big")


def test_code_is_the_thermometer_code_of_the_corner_sums():
    # the row-by-row build against the definition, on all of A_n for n <= 6
    # and on walked matrices with two-, three- and four-byte fields, with a
    # cold row memo and then a warm one
    matrices = [a for n in (*range(1, 7), 8, 10, 15, 20, 30) for a in walked_asms(n)]
    assert sum(minus_count(a) >= 3 for a in matrices if a.n >= 15) >= 25
    want = [_thermometer_code(a) for a in matrices]
    clear_row_memos()
    for _ in range(2):
        assert [core._code(Asm(a.n, a.entries)) for a in matrices] == want


def _record_view(row):
    """A row's record by its definition: its running sums and its +1, -1
    and nonzero columns as masks, bit j - 1 for column j."""
    sums = list(itertools.accumulate(row))
    def mask(bits):
        return sum(1 << j for j, b in enumerate(bits) if b)
    return mask(sums), mask(x == 1 for x in row), mask(x == -1 for x in row), mask(row)


def test_records_agree_however_the_matrix_was_made():
    # validate keeps the records it checked the rows with, each the row's
    # one entry of _ROWS; a matrix of the raw constructor or of the decoder
    # looks its rows up on first use.  All three read the same records
    matrices = [a for n in (*range(1, 6), 8, 10, 20, 30) for a in walked_asms(n)]
    for a in matrices:
        clear_row_memos()
        checked = validate(a.entries)
        assert [core._ROWS[row] for row in a.entries] == vars(checked)[core._RECORDS]
        raw, decoded = Asm(a.n, a.entries), core._from_code(a.n, core._code(a))
        assert core._RECORDS not in vars(raw) and core._RECORDS not in vars(decoded)
        want = [_record_view(row) for row in a.entries]
        for x in (checked, raw, decoded):
            assert [(m.run, m.plus, m.minus, m.nonzero) for m in core._records(x)] == want


def test_validate_fills_no_code_fields():
    # the code's fields are filled by the first _code that needs them, in
    # the row's one entry, and never by validate
    clear_row_memos()
    for n in range(1, 7):
        for a in walked_asms(n):
            validate(a.entries)
    assert len(core._ROWS) == sum(2 ** (n - 1) for n in range(1, 7))
    assert all(m.zeros is None for m in core._ROWS.values())
    a = validate(EXAMPLE_A_ROWS)
    k = core._code(a)
    assert all(core._ROWS[row].zeros is not None for row in a.entries)
    assert core._code(Asm(a.n, a.entries)) == k == _thermometer_code(a)


def test_from_corner_sum_rejects_bad_table():
    with pytest.raises(InvalidCornerSums):
        from_corner_sum([[1, 1], [1, 1]])
    with pytest.raises(InvalidCornerSums):
        check_corner_sums([[0, 1], [2, 2]])


@pytest.mark.parametrize("table", [[], [[1, 1], [1]]], ids=["empty", "ragged"])
def test_check_corner_sums_rejects_non_square(table):
    with pytest.raises(NotSquare):
        check_corner_sums(table)


def test_transpose(example_a):
    t = transpose(example_a)
    assert t.entries == tuple(zip(*EXAMPLE_A_ROWS))
    assert transpose(t) == example_a
    assert transpose(identity(5)) == identity(5)
    assert minus_count(t) == minus_count(example_a)


def test_dual(example_a):
    d = dual(example_a)
    assert d.entries == tuple(tuple(r) for r in reversed(EXAMPLE_A_ROWS))
    assert dual(d) == example_a
    assert minus_count(d) == 2
    assert dual(identity(3)) == from_permutation(Permutation.longest(3))
    # row-reversing 3412 gives 2143
    b = from_permutation(Permutation.from_images([3, 4, 1, 2]))
    assert to_permutation(dual(b)) == Permutation.from_images([2, 1, 4, 3])


def test_minus_count(example_a, middle3):
    assert minus_count(example_a) == 2
    assert minus_count(middle3) == 1
    assert minus_count(from_permutation(Permutation.from_images([4, 2, 1, 3]))) == 0


def test_permutation_basics():
    w = Permutation.from_images([3, 4, 1, 2])
    assert w(1) == 3 and w(4) == 2
    assert w.inverse() == w  # 3412 is an involution
    assert w.descents() == [2]
    with pytest.raises(NotAPermutation):
        Permutation.from_images([1, 1, 2])


def test_permutation_str_takes_commas_past_nine():
    assert str(Permutation.from_images([3, 4, 1, 2])) == "3412"
    assert str(Permutation.identity(10)) == "1,2,3,4,5,6,7,8,9,10"


def test_asm_is_permutation(example_a):
    assert from_permutation(Permutation.from_images([3, 4, 1, 2])).is_permutation()
    assert identity(1).is_permutation()
    assert not example_a.is_permutation()


@pytest.mark.parametrize("images", [[2.7, 1.2], [True], [1, 2.0], ["1"], 5])
def test_permutation_rejects_non_int_images(images):
    # no int() coercion: a float or bool image is an error, not rounded
    with pytest.raises(NotAPermutation):
        Permutation.from_images(images)


def test_asm_hashable_and_immutable(example_a):
    assert hash(example_a) == hash(validate(EXAMPLE_A_ROWS))
    with pytest.raises(AttributeError):
        example_a.n = 5


def test_asm_constructor_keeps_the_dataclass_contract(example_a):
    # the hand-written __init__ stores the two fields and nothing else;
    # repr, fields and immutability are the dataclass's, and the
    # hand-written equality and hashing keep its semantics
    a = Asm(example_a.n, example_a.entries)
    assert vars(a) == {"n": 4, "entries": example_a.entries}
    assert [f.name for f in dataclasses.fields(Asm)] == ["n", "entries"]
    assert a == example_a and hash(a) == hash((4, example_a.entries)) == hash(example_a)
    assert a != Asm(4, identity(4).entries) and a != (4, example_a.entries)
    assert Asm.__eq__(a, a) is True and Asm.__eq__(a, (4, example_a.entries)) is NotImplemented
    assert repr(a) == f"Asm(n=4, entries={example_a.entries!r})"
    assert Asm(n=4, entries=a.entries) == dataclasses.replace(a) == a
    for field in ("n", "entries", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.n


def test_asm_hash_is_kept_after_the_first_call(example_a):
    a = Asm(example_a.n, example_a.entries)
    assert vars(a) == {"n": 4, "entries": example_a.entries}
    # comparing computes no hash
    assert a == example_a and vars(a) == {"n": 4, "entries": example_a.entries}
    h = hash(a)
    assert h == hash((4, example_a.entries)) == vars(a)[core._HASH]
    assert set(vars(a)) == {"n", "entries", core._HASH}
    # a later call reads the memo, not the fields
    vars(a)[core._HASH] = 7
    assert hash(a) == 7
    vars(a)[core._HASH] = h
    # the memo takes no part in equality, repr or JSON
    assert a == example_a and repr(a) == repr(Asm(4, a.entries))
    assert a.to_json_dict() == {"n": 4, "entries": [list(row) for row in example_a.entries]}


def test_asm_hash_is_the_hash_of_its_fields():
    for n in range(1, 7):
        for a in walked_asms(n):
            assert hash(a) == hash((a.n, a.entries))


def test_equal_matrices_from_every_constructor_hash_and_compare_equal(middle3):
    # the join of the two simple transpositions of S_3 is the one matrix of
    # A_3 with a -1, decoded from the joined order code
    s1, s2 = (from_permutation(Permutation.from_images(w)) for w in ([2, 1, 3], [1, 3, 2]))
    joined = asmlat.join(s1, s2)
    decoded = core._from_code(3, core._code(middle3))
    built = [middle3, validate(middle3.entries), joined, decoded]
    assert len({id(a) for a in built}) == 4
    for a in built:
        for b in built:
            assert a == b and hash(a) == hash(b)
    assert len(set(built)) == 1
    assert joined != s1 and joined != s2
