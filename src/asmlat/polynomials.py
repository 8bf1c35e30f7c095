"""Exact sparse polynomials with half-integer exponents.

Generating functions of the weak inversion number live in Z[x^(1/2)], so
exponents are stored in half-units: the key 2e maps to the coefficient of
x^e.  Coefficients are arbitrary-precision ints and zero coefficients are
never stored.  The printed form is deterministic (ascending exponents,
half exponents rendered as "k/2") and is used as a golden-file format.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Exponent = Union[int, Fraction]


def _half_units(e: Exponent) -> int:
    h = 2 * e
    if h != int(h):
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(h)


class HalfIntPolynomial:
    """Sparse polynomial in one variable with exponents in (1/2)Z."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Mapping[int, int] | None = None, var: str = "λ"):
        self.var = var
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for h, c in coeffs.items():
                if c:
                    self.coeffs[int(h)] = int(c)

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
        h = _half_units(exponent)
        c = self.coeffs.get(h, 0) + coeff
        if c:
            self.coeffs[h] = c
        else:
            self.coeffs.pop(h, None)

    def __add__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        out = HalfIntPolynomial(dict(self.coeffs), self.var)
        for h, c in other.coeffs.items():
            out.add_term(c, Fraction(h, 2))
        return out

    def __neg__(self) -> "HalfIntPolynomial":
        return HalfIntPolynomial({h: -c for h, c in self.coeffs.items()}, self.var)

    def __sub__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        return self + (-other)

    def __mul__(self, other: "HalfIntPolynomial") -> "HalfIntPolynomial":
        out: dict[int, int] = {}
        for h1, c1 in self.coeffs.items():
            for h2, c2 in other.coeffs.items():
                h = h1 + h2
                out[h] = out.get(h, 0) + c1 * c2
        return HalfIntPolynomial(out, self.var)

    def __pow__(self, k: int) -> "HalfIntPolynomial":
        out = HalfIntPolynomial.one(self.var)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HalfIntPolynomial)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.var, frozenset(self.coeffs.items())))

    def items(self) -> list[tuple[int, int]]:
        """(half-unit exponent, coefficient) pairs, ascending."""
        return sorted(self.coeffs.items())

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
        if not self.coeffs:
            return True
        top = max(self.coeffs)
        return all(
            self.coeffs.get(top - h, 0) == c for h, c in self.coeffs.items()
        )

    def _term_str(self, h: int, c: int) -> str:
        if h == 0:
            return str(abs(c))
        if h == 2:
            v = self.var
        elif h % 2 == 0:
            v = f"{self.var}^{h // 2}"
        else:
            v = f"{self.var}^{h}/2"
        return v if abs(c) == 1 else f"{abs(c)}*{v}"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idx, (h, c) in enumerate(self.items()):
            t = self._term_str(h, c)
            if idx == 0:
                parts.append(t if c > 0 else f"-{t}")
            else:
                parts.append(f"+ {t}" if c > 0 else f"- {t}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"HalfIntPolynomial({self})"

    def to_json_dict(self) -> dict:
        return {
            "var": "lambda" if self.var == "λ" else self.var,
            "half_units": True,
            "terms": [[h, c] for h, c in self.items()],
        }


class BivariatePolynomial:
    """Sparse polynomial in two variables; the first may carry half exponents.

    Keys are (2 * first-exponent, second-exponent).
    """

    __slots__ = ("coeffs", "var1", "var2")

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
            for key, c in coeffs.items():
                if c:
                    self.coeffs[(int(key[0]), int(key[1]))] = int(c)

    def add_term(self, coeff: int, e1: Exponent, e2: int) -> None:
        key = (_half_units(e1), int(e2))
        c = self.coeffs.get(key, 0) + coeff
        if c:
            self.coeffs[key] = c
        else:
            self.coeffs.pop(key, None)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BivariatePolynomial)
            and (self.var1, self.var2) == (other.var1, other.var2)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.var1, self.var2, frozenset(self.coeffs.items())))

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.coeffs.items())

    def specialize_first(self, value: int) -> HalfIntPolynomial:
        """Substitute an integer for the first variable (half exponents must
        then be absent)."""
        out = HalfIntPolynomial.zero(self.var2)
        for (h, e2), c in self.items():
            if h % 2:
                raise ValueError("cannot specialize a half-integer exponent to an integer base")
            out.add_term(c * value ** (h // 2), e2)
        return out

    def _var_str(self, var: str, h2: int, half: bool) -> str:
        if half:
            if h2 == 2:
                return var
            if h2 % 2 == 0:
                return f"{var}^{h2 // 2}"
            return f"{var}^{h2}/2"
        return var if h2 == 1 else f"{var}^{h2}"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idx, ((h, e2), c) in enumerate(self.items()):
            factors = []
            if h:
                factors.append(self._var_str(self.var1, h, half=True))
            if e2:
                factors.append(self._var_str(self.var2, e2, half=False))
            body = "*".join(factors) if factors else "1"
            if abs(c) != 1 or not factors:
                body = f"{abs(c)}*{body}" if factors else str(abs(c))
            if idx == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "vars": ["lambda" if self.var1 == "λ" else self.var1, self.var2],
            "half_units_first": True,
            "terms": [[h, e2, c] for (h, e2), c in self.items()],
        }
