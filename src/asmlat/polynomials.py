"""Exact sparse polynomials with half-integer exponents.

Generating functions of the weak inversion number live in Z[x^(1/2)], so
exponents are stored in half-units: the key 2e maps to the coefficient of
x^e.  Coefficients are arbitrary-precision ints and zero coefficients are
never stored.  Each of these is a ValueError: a key or coefficient that
is not an int, an exponent that is neither an int nor a Fraction (a bool
or a float, say), a power that is not an int or is negative, and an
operand of +, - or * that is not a polynomial in the same variable.  The
printed form, shared by both classes, is deterministic (ascending
exponents, half exponents as "k/2"), a golden-file format.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Exponent = Union[int, Fraction]


def _int(x: object) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _half_units(e: Exponent) -> int:
    if type(e) not in (int, Fraction):
        raise ValueError(f"exponent {e!r} is not an int or a Fraction")
    h = 2 * e
    if h != int(h):
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(h)


def _power(var: str, e: int, half: bool) -> str:
    """var^e, or var^(e/2) when ``half``, as printed."""
    if half:
        if e % 2:
            return f"{var}^{e}/2"
        e //= 2
    return var if e == 1 else f"{var}^{e}"


class _Polynomial:
    """What both classes share: the nonzero int coefficients by key,
    equality that also compares the variables, the printed form and the
    repr.  A class names its variables with ``_vars()`` and splits a key into
    (variable, exponent, in half-units?) factors with ``_factors(key)``."""

    __slots__ = ("coeffs",)

    def _accumulate(self, key, c: int) -> None:
        c += self.coeffs.get(key, 0)
        if c:
            self.coeffs[key] = c
        else:
            self.coeffs.pop(key, None)

    def items(self) -> list:
        """(key, coefficient) pairs, ascending."""
        return sorted(self.coeffs.items())

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self._vars(), self.coeffs) == (
            other._vars(), other.coeffs
        )

    def __hash__(self) -> int:
        return hash((*self._vars(), frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for key, c in self.items():
            factors = [_power(v, e, half) for v, e, half in self._factors(key) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            terms.append(("- " if c < 0 else "+ ") + "*".join(factors))
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class HalfIntPolynomial(_Polynomial):
    """Sparse polynomial in one variable with exponents in (1/2)Z."""

    __slots__ = ("var",)

    def __init__(self, coeffs: Mapping[int, int] | None = None, var: str = "λ"):
        self.var = var
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for h, c in coeffs.items():
                self._accumulate(_int(h), _int(c))

    @classmethod
    def zero(cls, var: str = "λ") -> "HalfIntPolynomial":
        return cls({}, var)

    @classmethod
    def one(cls, var: str = "λ") -> "HalfIntPolynomial":
        return cls({0: 1}, var)

    @classmethod
    def term(cls, coeff: int, exponent: Exponent, var: str = "λ") -> "HalfIntPolynomial":
        return cls({_half_units(exponent): coeff}, var)

    def add_term(self, coeff: int, exponent: Exponent) -> None:
        """In-place accumulation; used while streaming over enumerations."""
        self._accumulate(_half_units(exponent), _int(coeff))

    def _operand(self, other: object) -> "HalfIntPolynomial":
        if type(other) is not HalfIntPolynomial or other.var != self.var:
            raise ValueError(f"{other!r} is not a polynomial in {self.var}")
        return other

    def __add__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        out = HalfIntPolynomial(dict(self.coeffs), self.var)
        for h, c in self._operand(other).coeffs.items():
            out._accumulate(h, c)
        return out

    def __neg__(self) -> "HalfIntPolynomial":
        return HalfIntPolynomial({h: -c for h, c in self.coeffs.items()}, self.var)

    def __sub__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        return self + (-self._operand(other))

    def __mul__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        other = self._operand(other)
        out: dict[int, int] = {}
        for h1, c1 in self.coeffs.items():
            for h2, c2 in other.coeffs.items():
                h = h1 + h2
                out[h] = out.get(h, 0) + c1 * c2
        return HalfIntPolynomial(out, self.var)

    def __pow__(self, k: int) -> "HalfIntPolynomial":
        if _int(k) < 0:
            raise ValueError(f"power {k} is negative")
        out = HalfIntPolynomial.one(self.var)
        for _ in range(k):
            out = out * self
        return out

    def coefficient(self, exponent: Exponent) -> int:
        return self.coeffs.get(_half_units(exponent), 0)

    def degree2(self) -> int:
        """Twice the top exponent; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def evaluate_at_one(self) -> int:
        return sum(self.coeffs.values())

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[max(self.coeffs)] == 1

    def is_palindromic(self) -> bool:
        """Coefficients read the same from both ends of the exponent range."""
        mirror = min(self.coeffs, default=0) + max(self.coeffs, default=0)
        return all(self.coeffs.get(mirror - h, 0) == c for h, c in self.coeffs.items())

    def _vars(self) -> tuple[str, ...]:
        return (self.var,)

    def _factors(self, h: int) -> tuple[tuple[str, int, bool], ...]:
        return ((self.var, h, True),)

    def to_json_dict(self) -> dict:
        return {
            "var": "lambda" if self.var == "λ" else self.var,
            "half_units": True,
            "terms": [[h, c] for h, c in self.items()],
        }


class BivariatePolynomial(_Polynomial):
    """Sparse polynomial in two variables; the first may carry half exponents.

    Keys are (2 * first-exponent, second-exponent).
    """

    __slots__ = ("var1", "var2")

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int], int] | None = None,
        var1: str = "λ",
        var2: str = "q",
    ):
        self.var1 = var1
        self.var2 = var2
        self.coeffs: dict[tuple[int, int], int] = {}
        if coeffs:
            for (h, e2), c in coeffs.items():
                self._accumulate((_int(h), _int(e2)), _int(c))

    def add_term(self, coeff: int, e1: Exponent, e2: int) -> None:
        self._accumulate((_half_units(e1), _int(e2)), _int(coeff))

    def _vars(self) -> tuple[str, ...]:
        return (self.var1, self.var2)

    def _factors(self, key: tuple[int, int]) -> tuple[tuple[str, int, bool], ...]:
        return ((self.var1, key[0], True), (self.var2, key[1], False))

    def specialize_first(self, value: int) -> HalfIntPolynomial:
        """Substitute an integer for the first variable (half exponents must
        then be absent)."""
        out = HalfIntPolynomial.zero(self.var2)
        for (h, e2), c in self.items():
            if h % 2:
                raise ValueError("cannot specialize a half-integer exponent to an integer base")
            out.add_term(c * value ** (h // 2), e2)
        return out

    def to_json_dict(self) -> dict:
        return {
            "vars": ["lambda" if self.var1 == "λ" else self.var1, self.var2],
            "half_units_first": True,
            "terms": [[h, e2, c] for (h, e2), c in self.items()],
        }
