from fractions import Fraction

import pytest

from asmlat.enumeration import bivariate_genfun, signed_identity_check
from asmlat.polynomials import BivariatePolynomial, HalfIntPolynomial


def test_equality_compares_the_variable():
    assert HalfIntPolynomial({0: 1}, var="q") != HalfIntPolynomial({0: 1})
    assert HalfIntPolynomial({2: 3}, var="q") == HalfIntPolynomial({2: 3}, var="q")
    assert len({HalfIntPolynomial.one("q"), HalfIntPolynomial.one()}) == 2
    assert BivariatePolynomial(var2="t") != BivariatePolynomial()
    assert signed_identity_check(5)[0]


def test_construction_drops_zeros():
    p = HalfIntPolynomial({0: 1, 2: 0, 4: 3})
    assert p.items() == [(0, 1), (4, 3)]


def test_add_term_accumulates():
    p = HalfIntPolynomial.zero()
    p.add_term(1, 1)
    p.add_term(1, Fraction(3, 2))
    p.add_term(2, 1)
    p.add_term(-1, Fraction(3, 2))
    assert p.items() == [(2, 3)]


def test_rejects_non_half_exponent():
    with pytest.raises(ValueError):
        HalfIntPolynomial.term(1, Fraction(1, 3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: HalfIntPolynomial({1.5: 1}),
        lambda: HalfIntPolynomial({2: 2.7}),
        lambda: HalfIntPolynomial({True: 1}),
        lambda: HalfIntPolynomial({2: True}),
        lambda: HalfIntPolynomial({2.0: 0}),
        lambda: HalfIntPolynomial.zero().add_term(1, 0.5),
        lambda: HalfIntPolynomial.zero().add_term(1.0, 1),
        lambda: HalfIntPolynomial.zero().add_term(1, True),
        lambda: HalfIntPolynomial.term(1, 1.0),
        lambda: BivariatePolynomial({(1.5, 2.9): 1}),
        lambda: BivariatePolynomial({(1, 2): 1.0}),
        lambda: BivariatePolynomial({(1, True): 1}),
        lambda: BivariatePolynomial().add_term(1, 0.5, 1),
        lambda: BivariatePolynomial().add_term(1, 1, Fraction(1, 2)),
        lambda: BivariatePolynomial().add_term(True, 1, 1),
    ],
)
def test_rejects_non_integers(build):
    # no silent int(): a float, a bool or a fractional power is an error
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda p: p ** -1,
        lambda p: p ** True,
        lambda p: p ** 2.0,
        lambda p: p + HalfIntPolynomial.one("q"),
        lambda p: p - HalfIntPolynomial.one("q"),
        lambda p: p * HalfIntPolynomial.one("q"),
        lambda p: HalfIntPolynomial.zero() * HalfIntPolynomial.one("q"),
        lambda p: p + 1,
    ],
)
def test_arithmetic_rejects_coercions(build):
    # no power taken as 1 or as an int, and no operand's variable ignored
    with pytest.raises(ValueError):
        build(HalfIntPolynomial({0: 1, 2: 1}))


def test_arithmetic():
    p = HalfIntPolynomial({0: 1, 2: 1})       # 1 + x
    q = HalfIntPolynomial({0: 1, 2: -1})      # 1 - x
    assert (p * q).items() == [(0, 1), (4, -1)]
    assert (p + q).items() == [(0, 2)]
    assert (p - p).items() == []
    assert (q ** 2).items() == [(0, 1), (2, -2), (4, 1)]


def test_str_golden():
    assert str(HalfIntPolynomial.zero()) == "0"
    assert str(HalfIntPolynomial.one()) == "1"
    p = HalfIntPolynomial({0: 1, 2: 2, 3: 1, 4: 2, 6: 1})
    assert str(p) == "1 + 2*λ + λ^3/2 + 2*λ^2 + λ^3"
    q = HalfIntPolynomial({0: 1, 2: -2, 6: 2, 8: -1}, var="q")
    assert str(q) == "1 - 2*q + 2*q^3 - q^4"
    assert str(HalfIntPolynomial({2: -1})) == "-λ"


def test_repr_golden():
    # one repr for both classes: the class name around the printed form
    assert repr(HalfIntPolynomial({0: 1, 2: 2, 3: 1})) == "HalfIntPolynomial(1 + 2*λ + λ^3/2)"
    assert repr(HalfIntPolynomial.zero("q")) == "HalfIntPolynomial(0)"
    assert repr(bivariate_genfun(2, "I:beta")) == "BivariatePolynomial(1 + λ*q)"


def test_palindromic_and_monic():
    p = HalfIntPolynomial({0: 1, 2: 2, 3: 1, 4: 2, 6: 1})
    assert p.is_palindromic() and p.is_monic()
    assert not HalfIntPolynomial({0: 1, 2: 2, 4: 3, 6: 1}).is_palindromic()
    assert not HalfIntPolynomial({0: 2, 2: 2}).is_monic()
    assert HalfIntPolynomial.zero().is_palindromic()
    # mirrored about the lowest and the highest exponent, not about 0
    assert HalfIntPolynomial({2: 1, 4: 1}).is_palindromic()
    assert HalfIntPolynomial({-2: 1, 2: 1}).is_palindromic()
    assert HalfIntPolynomial({4: 1}).is_palindromic()


def test_evaluate_and_coefficient():
    p = HalfIntPolynomial({0: 1, 3: 4, 6: 2})
    assert p.evaluate_at_one() == 7
    assert p.coefficient(Fraction(3, 2)) == 4
    assert p.coefficient(1) == 0
    assert p.degree2() == 6


def test_json():
    p = HalfIntPolynomial({3: 1, 0: 1})
    assert p.to_json_dict() == {
        "var": "lambda",
        "half_units": True,
        "terms": [[0, 1], [3, 1]],
    }


def test_bivariate_basics():
    p = BivariatePolynomial()
    p.add_term(1, 0, 0)
    p.add_term(1, 1, 1)
    p.add_term(2, Fraction(3, 2), 2)
    assert p.items() == [((0, 0), 1), ((2, 1), 1), ((3, 2), 2)]
    assert str(p) == "1 + λ*q + 2*λ^3/2*q^2"


def test_bivariate_cancellation_and_eq():
    p = BivariatePolynomial()
    p.add_term(1, 1, 1)
    p.add_term(-1, 1, 1)
    assert p == BivariatePolynomial()


def test_bivariate_specialize():
    p = BivariatePolynomial()
    p.add_term(1, 0, 0)   # 1
    p.add_term(1, 1, 1)   # λ q
    p.add_term(1, 2, 1)   # λ² q
    s = p.specialize_first(-1)
    assert s.items() == [(0, 1)]  # 1 - q + q
    p2 = BivariatePolynomial()
    p2.add_term(1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        p2.specialize_first(-1)
