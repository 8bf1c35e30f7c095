"""Core objects: alternating sign matrices, permutations, corner sum matrices.

All public coordinates are 1-based (i = row, j = column).  Internally the
entries live in tuples of tuples indexed from 0; that never leaks through
the API.  Every object is immutable and hashable, so values can be shared
freely across threads and used as dict keys.

Corner sums are the one internal representation of the order.
:func:`corner_sum` computes an :class:`Asm`'s table on first use and keeps
it in a memo on the instance, so a matrix read again reuses it.
Beside it sits a second memo, the order code: one integer holding every
corner sum as a thermometer field (value c sets bits c and up of its
field), so a smaller sum sets more bits.  The order tests of
:mod:`asmlat.poset` read the code: A <= B iff A's bits are a subset of
B's, the entrywise min and max of two tables are the OR and AND of their
codes, and the popcount is beta(A) plus a constant of n.  Only this
module knows the code's layout: the encoder (:func:`_code`), which builds
it a row of fields at a time and reads no table, the decoder
(:func:`_from_code`, which rebuilds the entries from a code with a few
byte translations and big-integer shifts, so join and meet never build a
table) and the field of a given bit (:func:`_field_position`).  The
third memo is the hash, ``hash((n, entries))``, computed on the first
call, so a matrix used again as a dict or cache key is not rehashed;
``==`` answers at once for the same object and otherwise compares ``n``
and ``entries``.  The fourth is the list of the matrix's row records
(:func:`_records`, below).  The four memos are caches, not fields; they
take no part in equality, ``repr`` or ``to_json_dict``.  Each is a
function of the entries, so two threads that fill one at once store
the same value.

An ASM row of size n takes only 2^(n-1) forms, so the work on each entry
of a row is paid once per distinct row, in one module-level row memo,
``_ROWS`` (a :class:`_RowMemo`, bounded by the entries of the rows it
holds and cleared when full).  It keeps each row that passed its own
checks with one record (:class:`_Row`): its running sums and its +1, -1
and nonzero columns as masks, bit j - 1 for column j, and the order
code's fields where its running sums are 0, filled by the first
:func:`_code` that needs them.  That bit layout is the one of every
column state in the package: the column prefix sums here, ``poset``'s
exchange rule, and ``enumeration``'s row table and vertex DP.
:func:`_checked` keeps the records it looked up on the matrix it
returns; a matrix made by the raw constructor looks its rows up on
first use.  Every per-matrix answer reads them: the column
checks here, the order code, ``poset``'s covers and join-irreducible
test, and ``stats.stat_record``, each in a few word operations per row.

:func:`validate` is :func:`_as_rows`, which turns any sequence of rows
into tuples of ints, then :func:`_checked`, which checks the
alternating-sign conditions on rows that are already tuples of ints; a
reader that builds such rows itself calls :func:`_checked` alone.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import accumulate, chain, permutations
from operator import add, sub
from typing import Iterator, Sequence


class AsmError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotSquare(AsmError):
    pass


class EntryOutOfRange(AsmError):
    pass


class BadPartialSum(AsmError):
    pass


class BadTotalSum(AsmError):
    pass


class InvalidCornerSums(AsmError):
    pass


class NotAPermutation(AsmError):
    pass


class SizeMismatch(AsmError):
    pass


class IndexOutOfRange(AsmError):
    pass


_INT = frozenset((int,))


def _as_rows(raw: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples; every entry must be an int (a bool is not)."""
    try:
        rows = tuple(map(tuple, raw))
    except TypeError:
        raise NotSquare("a matrix must be a sequence of rows") from None
    # one C-level pass; only a matrix that fails it is scanned for the message
    if not _INT.issuperset(map(type, chain.from_iterable(rows))):
        _raise_first_non_int(rows)
    return rows


def _raise_first_non_int(rows: tuple[tuple[object, ...], ...]) -> None:
    """Raise on the first entry, row-major, that is not an int."""
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if type(x) is not int:
                raise EntryOutOfRange(f"entry {x!r} at ({i}, {j}) is not an integer")


@dataclass(frozen=True, init=False)
class Asm:
    """An n x n alternating sign matrix.

    Entries are in {-1, 0, 1}; every row- and column-prefix sum is 0 or 1
    and every full row/column sum is 1.  Construct via :func:`validate`
    (checked) or the classmethods below; the raw constructor trusts its
    input.  The corner-sum table, the order code, the hash and the row
    records, once computed, are kept in the instance ``__dict__`` (see
    the module docstring); only ``n`` and ``entries`` take part in
    ``==``, ``hash`` and ``repr``.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, entries: tuple[tuple[int, ...], ...]) -> None:
        # the two fields go straight into __dict__: the generated frozen
        # init sets each through object.__setattr__, at about twice the cost
        d = self.__dict__
        d["n"] = n
        d["entries"] = entries

    # The generated dataclass semantics, hash((n, entries)) and equal
    # fields, written out so that the hash is kept in its memo and an
    # object equals itself without building two tuples: join and meet
    # mostly return an operand itself.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self) -> int:
        h = self.__dict__.get(_HASH)
        if h is None:
            h = self.__dict__[_HASH] = hash((self.n, self.entries))
        return h

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        _require_position(self.n, i, j)
        return self.entries[i - 1][j - 1]

    def nonzeros(self) -> list[tuple[int, int, int]]:
        """All (i, j, value) with a nonzero entry, row-major, 1-based."""
        return [
            (i + 1, j + 1, v)
            for i, row in enumerate(self.entries)
            for j, v in enumerate(row)
            if v
        ]

    def is_permutation(self) -> bool:
        return minus_count(self) == 0

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": [list(row) for row in self.entries]}

    def __str__(self) -> str:
        return "\n".join(map(_row_text, self.entries))


def _row_text(row: tuple[int, ...]) -> str:
    """A row as every text writer spells it: its entries by single spaces."""
    return " ".join(map(str, row))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    n: int
    images: tuple[int, ...]

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "Permutation":
        """Checked constructor; every image must be an int (a bool is not)."""
        try:
            imgs = tuple(images)
        except TypeError:
            raise NotAPermutation(f"{images!r} is not a sequence of images") from None
        for x in imgs:
            if type(x) is not int:
                raise NotAPermutation(f"image {x!r} is not an integer")
        n = len(imgs)
        if n == 0 or sorted(imgs) != list(range(1, n + 1)):
            raise NotAPermutation(f"{imgs} is not a permutation of 1..{n}")
        return cls(n, imgs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _require_size(n, NotAPermutation)
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The reversal i -> n - i + 1 (the maximum of Bruhat order)."""
        _require_size(n, NotAPermutation)
        return cls(n, tuple(range(n, 0, -1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, w in enumerate(self.images, start=1):
            inv[w - 1] = i
        return Permutation(self.n, tuple(inv))

    def descents(self) -> list[int]:
        """Positions i with w(i) > w(i+1)."""
        return [
            i
            for i in range(1, self.n)
            if self.images[i - 1] > self.images[i]
        ]

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(x) for x in self.images)
        return ",".join(str(x) for x in self.images)


@dataclass(frozen=True)
class CornerSumMatrix:
    """Rectangular prefix sums of an ASM; determines it and orders them.

    sums[i-1][j-1] is the sum of all entries weakly north-west of (i, j).
    Rows and columns increase weakly in steps of 0 or 1, the last column
    reads 1..n and the last row reads 1..n.
    """

    n: int
    sums: tuple[tuple[int, ...], ...]


# Each row memo (``_ROWS`` here, the line memo of asmlat.io) holds rows
# of at most this many entries in all, so its memory is bounded whatever
# the size of the rows it sees: 1,638 rows of size 10.
_HELD = 1 << 14


class _RowMemo(dict):
    """A memo keyed by matrix rows, or by their text lines, that holds
    rows of at most ``_HELD`` entries in all: it is cleared before a row
    that would pass the bound is stored, and a row longer than the bound
    is not stored.  Reads are plain ``dict.get`` calls; a store, made
    only on a miss, holds a lock, so the count stays exact when threads
    store at once."""

    def __init__(self) -> None:
        super().__init__()
        self.held = 0  # the entries of the rows stored
        self._lock = threading.Lock()

    def keep(self, key, value, size: int):
        """Store value under key, for a row of ``size`` entries, unless a
        value is stored there already, and return the value stored
        (value itself for a row longer than the bound).  Only a memo
        about to be cleared hashes the key twice."""
        if size > _HELD:
            return value
        with self._lock:
            if self.held + size > _HELD and key not in self:
                super().clear()
                self.held = 0
            held = len(self)
            value = self.setdefault(key, value)
            self.held += size * (len(self) - held)
        return value

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self.held = 0


class _Row:
    """One valid ASM row of size n as masks, bit j - 1 for column j:
    ``run``, its running sums R(j); ``plus``, ``minus`` and
    ``nonzero``, its +1, -1 and nonzero columns; and ``zeros``, its
    fields of the order code where R(j) is 0, every bit of each, None
    until :func:`_code` first needs them.  A nonzero entry is a change
    of the running sum, and a +1 is a change to 1, so the masks come
    from ``run`` alone."""

    __slots__ = ("run", "plus", "minus", "nonzero", "zeros")

    def __init__(self, sums: bytes) -> None:
        # the sums, each 0 or 1, read as binary digits, column n first
        run = int(sums[::-1].hex()[1::2], 2)
        nonzero = run ^ run << 1 ^ 1 << len(sums)  # the last sum, 1, shifted past column n
        self.run, self.plus = run, nonzero & run
        self.minus, self.nonzero, self.zeros = nonzero ^ self.plus, nonzero, None


# Each row of ints that passed its own checks, keyed to its record (see
# _row_record); a row that fails them is never stored.
_ROWS = _RowMemo()


def _row_record(row: tuple[int, ...]) -> _Row | None:
    """A row's :class:`_Row`, made once per distinct row and kept in
    ``_ROWS``.  None, not stored, for a row whose running sums leave
    {0, 1} or that does not sum to 1.  No step loops over the row in
    Python."""
    try:
        sums = bytes(accumulate(row))
    except ValueError:  # a running sum below 0 or past 255
        return None
    if sums[-1] != 1 or max(sums) > 1:
        return None
    return _ROWS.keep(row, _Row(sums), len(row))


def validate(raw: Sequence[Sequence[int]]) -> Asm:
    """Check the alternating-sign conditions and build an :class:`Asm`.

    The first violated constraint in a row-major scan is reported, with
    1-based coordinates in the message, so errors are deterministic: each
    row's entries and running sums left to right, then its total, then
    its column prefix sums.  A row's own checks are made once per distinct
    row (:func:`_row_record`); the column checks are two mask tests against
    the column prefix sums, bit j - 1 for column j.  Only a row that fails is
    scanned entry by entry, for the message.
    """
    return _checked(_as_rows(raw))


def _checked(rows: tuple[tuple[int, ...], ...]) -> Asm:
    """:func:`validate` for rows that are already tuples of ints.  Only
    such rows may be looked up in ``_ROWS``: ``(True,) == (1,)``."""
    n = len(rows)
    if n == 0:
        raise NotSquare("empty matrix")
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise NotSquare(f"row {i} has {len(row)} entries, expected {n}")
    a = Asm(n, rows)
    col = 0  # the column prefix sums of the rows so far, bit j - 1 for column j
    for i, m in enumerate(_records(a), start=1):
        # a +1 under a column that is 1 already, or a -1 under one that is 0
        if m is None or m.plus & col or m.minus & ~col:
            _raise_first_violation(i, rows[i - 1], col)
        col ^= m.nonzero
    # every row sums to 1 and every column ends in {0, 1}, so the n column
    # totals add up to n and each of them is 1
    return a


def _raise_first_violation(i: int, row: tuple[int, ...], col: int) -> None:
    """Raise the first violation of row i, which breaks one, given the
    column prefix sums ``col`` of the rows above it (bit j - 1 for column j)."""
    row_sum = 0
    for j, v in enumerate(row, start=1):
        if v not in (-1, 0, 1):
            raise EntryOutOfRange(f"entry {v} at ({i}, {j}) not in {{-1, 0, 1}}")
        row_sum += v
        if row_sum not in (0, 1):
            raise BadPartialSum(f"row prefix sum {row_sum} at ({i}, {j})")
    if row_sum != 1:
        raise BadTotalSum(f"row {i} sums to {row_sum}, expected 1")
    for j, v in enumerate(row, start=1):
        c = (col >> j - 1 & 1) + v
        if c not in (0, 1):
            raise BadPartialSum(f"column prefix sum {c} at ({i}, {j})")


def _require_position(n: int, i: int, j: int) -> None:
    """Refuse a position that is not two ints (a bool is not) in 1..n."""
    if not (type(i) is type(j) is int and 1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"position ({i!r}, {j!r}) outside 1..{n}")


def _require_size(n: int, error: type[AsmError] = AsmError) -> None:
    """Refuse a size that is not an int (a bool is not) or is below one."""
    if type(n) is not int:
        raise error(f"size {n!r} is not an integer")
    if n < 1:
        raise error(f"size {n} must be positive")


def identity(n: int) -> Asm:
    """The unit matrix, the minimum of the lattice."""
    _require_size(n, NotSquare)
    return Asm(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def from_permutation(w: Permutation) -> Asm:
    """The 0/1 matrix with a 1 at (i, w(i)) for each row i."""
    return Asm(
        w.n,
        tuple(
            tuple(1 if (j + 1) == w.images[i] else 0 for j in range(w.n))
            for i in range(w.n)
        ),
    )


def to_permutation(a: Asm) -> Permutation:
    """Invert the permutation-matrix embedding.

    Raises :class:`NotAPermutation` when the matrix has any -1 entry.
    """
    if minus_count(a) > 0:
        raise NotAPermutation("matrix contains -1 entries")
    images = tuple(row.index(1) + 1 for row in a.entries)
    return Permutation(a.n, images)


# The instance attributes that hold an Asm's corner-sum table, its order
# code, its hash and its row records once computed.
_MEMO = "_corner_sums"
_CODE = "_order_code"
_HASH = "_hash"
_RECORDS = "_row_records"


def _prefix_sums(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The corner-sum table of the rows, computed afresh: row i is row
    i - 1 plus the running sums along row i."""
    prev, sums = (0,) * len(rows), []
    for row in rows:
        prev = tuple(map(add, prev, accumulate(row)))
        sums.append(prev)
    return tuple(sums)


def _records(a: Asm) -> list[_Row]:
    """a's row records, in row order, looked up in ``_ROWS`` on first
    use and then kept on a; :func:`_checked` reads them here as it
    checks the rows, so a checked matrix keeps those it was checked
    with."""
    records = a.__dict__.get(_RECORDS)
    if records is None:
        known = _ROWS.get
        records = a.__dict__[_RECORDS] = [known(row) or _row_record(row) for row in a.entries]
    return records


def _sums(a: Asm) -> tuple[tuple[int, ...], ...]:
    """a's corner-sum table, computed on first use and then kept on a."""
    s = a.__dict__.get(_MEMO)
    if s is None:
        s = a.__dict__[_MEMO] = _prefix_sums(a.entries)
    return s


def _width(n: int) -> int:
    """Bytes per field of the order code: 8 * width bits exceed n, the
    largest corner sum."""
    return n // 8 + 1


def _field_bits(n: int) -> int:
    """Bits per field of the order code."""
    return 8 * _width(n)


# For each byte value, the zeros below its lowest set bit, and 8 for a zero
# byte: summed over a field's bytes, the corner sum the field holds.
_ZEROS_BELOW = bytes(8 if b == 0 else (b & -b).bit_length() - 1 for b in range(256))
# e + 1 in {0, 1, 2} to the signed byte e
_SIGNED = bytes((255, 0, 1)) + bytes(253)


@functools.cache
def _decode_masks(n: int) -> tuple[int, int, int]:
    """In the code's field layout: 1 in each field, 0xFF in each field's
    low byte, and every bit of each field outside column 1."""
    w = _width(n)
    ones = int.from_bytes((bytes(w - 1) + b"\x01") * (n * n), "big")
    inner = int.from_bytes((bytes(w) + b"\xff" * (w * (n - 1))) * n, "big")
    return ones, 0xFF * ones, inner


@functools.cache
def _code_masks(n: int) -> tuple[int, int]:
    """One row of the code's fields: every bit, and every bit but each
    field's lowest."""
    full = (1 << n * _field_bits(n)) - 1
    return full, full ^ int.from_bytes((bytes(_width(n) - 1) + b"\x01") * n, "big")


def _row_zeros(n: int, record: _Row) -> int:
    """A size-n row's fields of the order code where its running sums
    are 0, every bit of each: made on first use and kept in its record.

    The sums are 0 up to the row's first +1, and from each -1 up to the
    next +1; a run of whole fields from column a on, f bits each, ends at
    bit f * (n - a + 1).  So the fields are 1 << f * n less the sum over
    the row's nonzero entries e_a of e_a << f * (n - a + 1): one add
    per nonzero entry, whatever the row's length.
    """
    f, nonzero, plus = _field_bits(n), record.nonzero, record.plus
    zeros = 1 << f * n
    while nonzero:
        bit = nonzero.bit_length() - 1  # bit a - 1 is column a
        nonzero ^= 1 << bit
        if plus >> bit & 1:
            zeros -= 1 << f * (n - bit)
        else:
            zeros += 1 << f * (n - bit)
    record.zeros = zeros
    return zeros


def _code(a: Asm) -> int:
    """a's order code, built on first use and then kept on a.

    The fields run row-major from the most significant end; field
    (i, j) holds c(i, j) as a thermometer code, so min(c1, c2) is
    code1 | code2 and A <= B iff ``code(A) & ~code(B) == 0``.  The code
    is built a row of fields at a time, with no corner-sum table: row i
    is row i - 1 plus row i's running sums, each 0 or 1, and adding 1 to
    a field clears its lowest set bit, a shift by one within the field;
    the fields where row i's sums are 0 (its record's ``zeros``) keep
    row i - 1's.
    """
    k = a.__dict__.get(_CODE)
    if k is None:
        n = a.n
        full, no_low = _code_masks(n)
        t, size, rows = full, n * _width(n), []  # row 0: every sum 0
        for m in _records(a):
            zeros = _row_zeros(n, m) if m.zeros is None else m.zeros
            t &= (t << 1 & no_low) | zeros
            rows.append(t.to_bytes(size, "big"))
        k = a.__dict__[_CODE] = int.from_bytes(b"".join(rows), "big")
    return k


def _from_code(n: int, k: int) -> Asm:
    """The matrix whose order code is k, unchecked, with k as its code memo.

    No step loops over the n * n positions.  Each code byte, translated,
    gives the zeros below its lowest set bit; moving each field's bytes in
    turn to its low byte and adding gives every corner sum c, in a field
    of the code's width, so a sum past 255 carries within its field.  One
    second difference of all fields at once, c(i, j) - c(i, j-1) -
    c(i-1, j) + c(i-1, j-1) plus one, leaves e(i, j) + 1 in {0, 1, 2} in
    each field's low byte, so no field borrows from the next.
    """
    w = _width(n)
    size, f = w * n * n, 8 * w
    ones, low, inner = _decode_masks(n)
    t = int.from_bytes(k.to_bytes(size, "big").translate(_ZEROS_BELOW), "big")
    s = t & low
    for i in range(1, w):
        s += (t >> 8 * i) & low
    e = s + ones + ((s >> (n + 1) * f) & inner) - (s >> n * f) - ((s >> f) & inner)
    signed = memoryview(e.to_bytes(size, "big")[w - 1 :: w].translate(_SIGNED)).cast("b")
    a = Asm(n, tuple(zip(*[iter(signed)] * n)))
    a.__dict__[_CODE] = k
    return a


def _field_position(n: int, bit: int) -> tuple[int, int]:
    """The 1-based (r, s) of the field holding bit ``bit`` of an order
    code; fields run row-major from the top bit down."""
    p = n * n - 1 - bit // _field_bits(n)
    return p // n + 1, p % n + 1


def corner_sum(a: Asm) -> CornerSumMatrix:
    """The corner sums of a; the table is computed once per instance."""
    return CornerSumMatrix(a.n, _sums(a))


def check_corner_sums(raw: Sequence[Sequence[int]]) -> CornerSumMatrix:
    """Validate the three corner-sum invariants and wrap the table."""
    sums = _as_rows(raw)
    n = len(sums)
    if n == 0 or any(len(r) != n for r in sums):
        raise NotSquare("corner sum table must be square and non-empty")
    for i in range(n):
        for j in range(n):
            left = sums[i][j - 1] if j > 0 else 0
            up = sums[i - 1][j] if i > 0 else 0
            if sums[i][j] - left not in (0, 1):
                raise InvalidCornerSums(f"row step at ({i+1}, {j+1}) not 0 or 1")
            if sums[i][j] - up not in (0, 1):
                raise InvalidCornerSums(f"column step at ({i+1}, {j+1}) not 0 or 1")
    for i in range(n):
        if sums[i][n - 1] != i + 1:
            raise InvalidCornerSums(f"last column at row {i+1} is {sums[i][n-1]}, expected {i+1}")
        if sums[n - 1][i] != i + 1:
            raise InvalidCornerSums(f"last row at column {i+1} is {sums[n-1][i]}, expected {i+1}")
    return CornerSumMatrix(n, sums)


def _second_differences(sums: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The matrix whose corner sums are ``sums``, by second differences."""
    rows, prev = [], (0,) * len(sums)
    for cur in sums:
        step = tuple(map(sub, cur, prev))
        rows.append(tuple(map(sub, step, (0, *step))))
        prev = cur
    return tuple(rows)


def from_corner_sum(c: CornerSumMatrix | Sequence[Sequence[int]]) -> Asm:
    """Recover the matrix from its prefix-sum table, checking both."""
    if not isinstance(c, CornerSumMatrix):
        c = check_corner_sums(c)
    return validate(_second_differences(c.sums))


def transpose(a: Asm) -> Asm:
    return Asm(a.n, tuple(zip(*a.entries)))


def dual(a: Asm) -> Asm:
    """Row-reversed matrix: an order-reversing involution on the lattice."""
    return Asm(a.n, tuple(reversed(a.entries)))


def minus_count(a: Asm) -> int:
    """Number of -1 entries."""
    return sum(row.count(-1) for row in a.entries)


def iter_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order; the size is checked at
    the call, not on first use."""
    _require_size(n, NotAPermutation)
    return (Permutation(n, images) for images in permutations(range(1, n + 1)))
