"""Polynomial / series arithmetic and the closed-form solvers."""

import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooktrees import algebra
from hooktrees.algebra import (
    ONE,
    Poly,
    PolySeries,
    X,
    ZERO,
    _dot,
    _exact_sum,
    _grow,
    closed_omega,
    closed_phi,
    rhs_binomial_poly,
    rhs_product_poly,
    series_compose_scaled,
    solve_omega,
    solve_phi,
)
from hooktrees.cli import coefficient_strings, render_reports
from hooktrees.identities import (
    IdentitySpec,
    VerificationReport,
    check_gf_relations,
    check_identity,
    check_recurrence_thm1_1,
)
from hooktrees.trees import LEAF, MAryTree, PlaneForest, count_trees

half = Fraction(1, 2)


def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0]).coeffs == ()
    assert Poly().degree == -1
    assert Poly([Fraction(2, 4)]).coeffs == (half,)
    assert Poly([1, 0, 3]) == Poly((1, 0, 3))


def test_poly_is_immutable_and_hashable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert Poly.__slots__ == ("pair",)
    assert hash(Poly([1, 2])) == hash(p)


def test_value_types_raise_attribute_error_on_any_assignment():
    spec = IdentitySpec("lascoux_1_1", n=1)
    cases = [
        (MAryTree(2, LEAF), "root"), (PlaneForest(((),)), "trees"), (Poly([1]), "pair"),
        (PolySeries([1]), "coeffs"), (spec, "n"), (VerificationReport(spec, ONE, ONE, True, 1, 0.0), "passed"),
    ]
    for value, field in cases:
        for name in (field, "vertex"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)


@given(st.one_of(st.integers(), st.fractions()))
def test_constant_poly_equals_and_hashes_like_its_scalar(c):
    assert Poly([c]) == c
    assert hash(Poly([c])) == hash(c)
    assert len({Poly([c]), c}) == 1


def test_zero_poly_hashes_like_zero():
    assert ZERO == 0 and hash(ZERO) == hash(0)


def test_poly_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])


def test_poly_add_identity():
    p = Poly([3, 0, 7])
    assert p + ZERO == p
    assert ZERO + p == p


def test_poly_assembles_quadratic_sum():
    # ((3x-1)/2) * x + x^2 = (5x^2 - x)/2
    lhs = Poly([-half, Fraction(3, 2)]) * X + X * X
    assert lhs == Poly([0, -half, Fraction(5, 2)])


def test_poly_eval():
    assert (X * X)(-2) == 4
    assert Poly([0, -half, Fraction(5, 2)])(1) == 2
    assert rhs_binomial_poly(2, 2)(half) == Fraction(3, 8)
    assert (X * X)(X + 1) == Poly([1, 2, 1])  # a Poly point composes


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, float("nan"), "1", None])
def test_poly_rejects_inexact_values(value):
    # A float would become a silently inexact Fraction, or a float result.
    for make in (lambda: Poly([value]), lambda: Poly([1, value]), lambda: PolySeries([1, value]),
                 lambda: (X + 1)(value), lambda: ZERO(value), lambda: X + value, lambda: value * X):
        with pytest.raises(TypeError):
            make()


def test_zero_at_a_poly_point_is_the_zero_poly():
    # Composition yields a Poly even when no coefficient enters the Horner loop.
    for p in (ZERO, Poly([3])):
        assert isinstance(p(X + 1), Poly)
    assert ZERO(X + 1) == ZERO


def test_poly_pow_and_scalars():
    assert (Poly([1, 1]) ** 2) == Poly([1, 2, 1])
    assert Poly([1, 1]) ** 0 == ONE
    assert 3 * X == Poly([0, 3])
    assert X - 1 == Poly([-1, 1])
    assert 1 - X == Poly([1, -1])
    with pytest.raises(ValueError):
        X ** (-1)


def test_poly_str():
    assert str(Poly([0, -half, Fraction(5, 2)])) == "(5/2)x^2 - (1/2)x"
    assert str(ZERO) == "0"
    assert str(X) == "x"
    assert str(Poly([Fraction(1, 3)])) == "1/3"
    assert str(Poly([-2, 0, 1])) == "x^2 - 2"


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=10)
polys = st.lists(small_fractions, max_size=5).map(Poly)


@given(polys, polys, polys)
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


wide_polys = st.lists(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12), max_size=6
).map(Poly)


def _naive_product(p, q):
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


@given(st.one_of(polys, wide_polys), st.one_of(polys, wide_polys))
def test_poly_mul_equals_a_fraction_convolution(p, q):
    product = p * q
    assert product == _naive_product(p, q)
    assert all(type(c) is Fraction for c in product.coeffs)


# Repeated and negative denominators: _miller_step divides by k*G_0, negative when G_0 < 0.
exact_terms = st.lists(
    st.tuples(
        st.sampled_from([1, 2, -2, 3, 6, -9, 10**12 + 39]),
        st.lists(st.integers(-(10**6), 10**6), max_size=5),
    ),
    max_size=8,
)


@given(exact_terms)
def test_exact_sum_equals_a_fraction_sum(terms):
    naive = [Fraction(0)] * max((len(num) for _, num in terms), default=0)
    for den, num in terms:
        for i, c in enumerate(num):
            naive[i] += Fraction(c, den)
    before = [(den, list(num)) for den, num in terms]
    total = _exact_sum(terms)
    assert total == Poly(naive)
    assert all(type(c) is Fraction for c in total.coeffs)
    assert terms == before


@pytest.mark.parametrize("seed", range(4))
def test_exact_sum_at_accumulation_scale(seed):
    # Hundreds of terms over a few repeated denominators, negative ones as
    # _miller_step makes them, as a multiset sum or a long series step feeds it.
    rng = random.Random(seed)
    dens = rng.sample([1, 2, -2, 3, 6, -9, 35, -77, 10**12 + 39], 4)
    terms = [
        (rng.choice(dens), [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 12))])
        for _ in range(rng.randint(200, 600))
    ]
    before = [(den, list(num)) for den, num in terms]
    naive = [Fraction(0)] * max(len(num) for _, num in terms)
    for den, num in terms:
        for i, c in enumerate(num):
            naive[i] += Fraction(c, den)
    total = _exact_sum(terms)
    assert total == Poly(naive)
    _assert_canonical_pair(total)
    assert terms == before


def test_exact_sum_of_no_terms_is_zero():
    assert _exact_sum([]) == ZERO
    assert _exact_sum([(5, [0, 0]), (-5, [])]) == ZERO


def _assert_canonical_pair(p):
    d, nums = p.pair
    assert type(nums) is tuple
    assert d > 0 and math.gcd(d, *nums) == 1
    assert d == math.lcm(*[c.denominator for c in p.coeffs])
    assert tuple(Fraction(c, d) for c in nums) == p.coeffs
    assert all(type(c) is Fraction for c in p.coeffs) and p.coeffs[-1:] != (0,)


def _fraction_sum(terms):
    """The eager coefficient tuple of ``_exact_sum(terms)``, added up as Fractions."""
    out = [Fraction(0)] * max((len(num) for _, num in terms), default=0)
    for den, num in terms:
        for i, c in enumerate(num):
            out[i] += Fraction(c, den)
    return Poly(out).coeffs


def _fraction_horner(coeffs, point):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


@given(st.one_of(polys, wide_polys), st.one_of(polys, wide_polys), small_fractions, exact_terms)
def test_pair_is_canonical_and_has_the_value_of_coeffs(p, q, c, terms):
    assert ZERO.pair == (1, ()) and X.pair == (1, (0, 1))
    assert _exact_sum([(-4, [2, 6])]).pair == (2, (-1, -3))
    cancelled = _exact_sum(terms + [(-den, num) for den, num in terms])
    assert cancelled.pair == (1, ()) and (p - p).pair == (1, ())
    # Polys whose coeffs were never read, beside their eager coefficient tuples:
    # equality, hashing and pickling read only the pair; evaluation reads coeffs.
    constant_terms = [(den, num[:1]) for den, num in terms]
    unread = [_exact_sum(terms), _exact_sum(constant_terms), p * q, -p, p * c]
    eager = [
        _fraction_sum(terms), _fraction_sum(constant_terms), _naive_product(p, q).coeffs,
        Poly([-a for a in p.coeffs]).coeffs, Poly([a * c for a in p.coeffs]).coeffs,
    ]
    points = [Fraction(0), 0, -1, Fraction(-7, 3), Fraction(5, 2), 3, c]
    for r, e in zip(unread, eager):
        for other, other_eager in zip(unread + [Poly(t) for t in eager], eager + eager):
            assert (r == other) == (e == other_eager)
        assert (r == c) == (e == Poly([c]).coeffs) and (r == 0) == (e == ())
        assert hash(r) == hash(Poly(e))
        if len(e) <= 1:
            assert hash(r) == hash(e[0] if e else 0)
        back = pickle.loads(pickle.dumps(r))
        assert back.pair == r.pair and back == r
        for x in points:
            value = r(x)
            assert value == _fraction_horner(e, x) and type(value) is Fraction
        assert r.coeffs == e
    made = [
        p, Poly(p.coeffs + (0,)), _exact_sum(terms), cancelled, p + q, p - q, -p, p * c, c * p,
        p * -3, p * 0, p * q, p + c, c - p, pickle.loads(pickle.dumps(p)), *unread,
    ]
    for r in made:
        _assert_canonical_pair(r)
    with pytest.raises(AttributeError):
        p.pair = (1, ())


# Weights as _miller_step builds them: denominator k*c is negative when G_0 = c/d < 0.
weight_terms = st.tuples(
    st.sampled_from([1, 2, -2, 3, -9, 10**12 + 39]), st.lists(st.integers(-50, 50), max_size=3)
)


def _naive_dot(a, b, k, weights):
    out: list[Fraction] = []
    for j in range(len(a)):
        if 0 <= k - j < len(b):
            w = ONE if weights is None else Poly([Fraction(c, weights[j][0]) for c in weights[j][1]])
            term = _naive_product(_naive_product(w, a[j]), b[k - j]).coeffs
            out += [Fraction(0)] * (len(term) - len(out))
            for i, c in enumerate(term):
                out[i] += c
    return Poly(out)


@given(
    st.lists(st.one_of(polys, wide_polys), max_size=5),
    st.lists(st.one_of(polys, wide_polys), max_size=5),
    st.lists(st.integers(0, 10), max_size=6),
    st.data(),
)
def test_dot_equals_a_fraction_sum(a, b, ks, data):
    weights = data.draw(st.none() | st.lists(weight_terms, min_size=len(a), max_size=len(a)))
    got = _dot(a, b, ks, weights)
    assert got == [_naive_dot(a, b, k, weights) for k in ks]
    for p in got:
        _assert_canonical_pair(p)


def _fractions_built(monkeypatch) -> list:
    """The argument tuples of every Fraction constructed from here on, as a growing list."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def test_series_layer_builds_no_fraction(monkeypatch):
    # The solvers, the composition and == run on integer pairs; a Fraction is
    # built only where a caller reads coeffs.
    built = _fractions_built(monkeypatch)
    order = 8
    phi = solve_phi(3, 3, 3, order)
    omega = solve_omega(3, 3, order)
    assert series_compose_scaled(omega, phi, 3) == phi
    assert built == []


def test_polynomial_checks_build_no_fraction(monkeypatch):
    # The convolution check and a polynomial row's sum, closed form and == read pairs too.
    built = _fractions_built(monkeypatch)
    assert check_recurrence_thm1_1(3, 6).passed
    assert check_identity(IdentitySpec("thm1_1_eq1_7", m=3, n=6)).passed
    assert built == []


def _fraction_frames(call) -> int:
    """How many Fraction.__new__ frames open while ``call()`` runs."""
    code, opened = Fraction.__new__.__code__, 0

    def count(frame, event, arg):
        nonlocal opened
        opened += event == "call" and frame.f_code is code

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return opened


def test_printing_and_evaluation_build_no_fraction_per_coefficient():
    # json printing reads each Poly's pair; evaluation at a/b runs Horner in
    # integers and builds only its result.
    reports = [
        check_identity(IdentitySpec("thm1_1_eq1_7", m=2, n=6)),
        check_identity(IdentitySpec("thm1_2_eq5_1a", m=2, n=5, S=frozenset({1}))),
        check_recurrence_thm1_1(3, 5),
        check_gf_relations(2, 1, 4),
    ]
    assert _fraction_frames(lambda: render_reports(reports, "json")) == 0
    p, point = reports[0].lhs, Fraction(10**12 + 39, 7)
    assert p.degree == 6
    assert _fraction_frames(lambda: p(point)) <= 2
    assert _fraction_frames(lambda: p(-(10**9))) <= 2


# Points far from the small_fractions range: a big numerator over a small
# denominator, a big negative integer, a big denominator.
wide_points = st.one_of(
    small_fractions,
    st.sampled_from([0, 1, -1, Fraction(10**12 + 39, 7), -(10**9), Fraction(-3, 10**15 + 37)]),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**12),
)


@given(st.one_of(polys, wide_polys), wide_points)
def test_evaluation_equals_fraction_horner(p, point):
    value = p(point)
    assert value == _fraction_horner(p.coeffs, point) and type(value) is Fraction


@given(st.one_of(polys, wide_polys))
def test_coefficient_strings_equal_fraction_strings(p):
    assert coefficient_strings(p) == [str(c) for c in p.coeffs]


def test_coefficient_strings_edge_values():
    cases = [
        ZERO, ONE, -X, Poly([0, 0, 5]), Poly([-4, 0, -7]), Poly([Fraction(-1, 2), 0, 3]),
        Poly([Fraction(1, 10**30 + 57), Fraction(-(10**40), 3), 2]), Poly([Fraction(6, 4), -half]),
    ]
    for p in cases:
        assert coefficient_strings(p) == [str(c) for c in p.coeffs]
    assert coefficient_strings(ZERO) == [] and coefficient_strings(Poly([0, 0, 5])) == ["0", "0", "5"]
    assert coefficient_strings(Poly([Fraction(6, 4), -half])) == ["3/2", "-1/2"]
    assert coefficient_strings(Fraction(-6, 4)) == ["-3/2"] and coefficient_strings(None) is None
    assert coefficient_strings((ONE, ZERO, -X)) == [["1"], [], ["0", "-1"]]


def test_poly_mul_edge_operands():
    big = Poly([Fraction(1, 10**18 + 9), Fraction(-7, 3 * 10**12), Fraction(5, 6)])
    for p, q in [
        (ZERO, big), (big, ZERO), (Poly([3]), big), (big, Poly([Fraction(-2, 7)])),
        (Poly([-1, -half]), Poly([Fraction(-1, 3), 1])), (big, big), (X, big),
    ]:
        assert p * q == _naive_product(p, q)


@given(polys, small_fractions)
def test_poly_eval_is_ring_homomorphism(p, point):
    q = Poly([1, 2, 1])
    assert (p + q)(point) == p(point) + q(point)
    assert (p * q)(point) == p(point) * q(point)


def test_poly_pickle_roundtrip():
    p = Poly([half, -3])
    assert pickle.loads(pickle.dumps(p)) == p
    s = PolySeries([ONE, X], order=3)
    assert pickle.loads(pickle.dumps(s)) == s


def test_rhs_binomial_poly():
    assert rhs_binomial_poly(2, 0) == ONE
    assert rhs_binomial_poly(2, 1) == X
    assert rhs_binomial_poly(2, 2) == Poly([0, -half, Fraction(5, 2)])
    with pytest.raises(ValueError):
        rhs_binomial_poly(0, 2)
    with pytest.raises(ValueError):
        rhs_binomial_poly(2, -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_rhs_binomial_at_one_counts_trees(m, n):
    assert rhs_binomial_poly(m, n)(1) == count_trees(m, n)


def test_rhs_product_poly_first_kind():
    assert rhs_product_poly("thm1_1_eq16", 2, 0) == ONE
    assert rhs_product_poly("thm1_1_eq16", 2, 1) == Poly([1, 1])
    expected = Poly([1, 1]) * Poly([Fraction(3, 2), 2])
    assert rhs_product_poly("thm1_1_eq16", 2, 2) == expected


def test_rhs_product_poly_second_kind():
    assert rhs_product_poly("thm1_2_eq51a", 1, 2, 0) == Poly([1, 1]) * Poly([1, 2])
    with pytest.raises(ValueError):
        rhs_product_poly("thm1_1_eq16", 1, 2)
    with pytest.raises(ValueError):
        rhs_product_poly("thm1_2_eq51a", 2, 2, 3)
    with pytest.raises(ValueError):
        rhs_product_poly("nope", 2, 2)


def test_closed_forms_are_phi_coefficients():
    # Each closed form is closed_phi at one (a, b, s), the product forms at
    # x + 1; composing with X + 1 runs the shift through Poly.__call__.
    y = X + 1
    for m in range(1, 7):
        for n in range(1, 13):
            assert rhs_binomial_poly(m, n) == closed_phi(-1, 0, m, n)
            if m >= 2:
                assert rhs_product_poly("thm1_1_eq16", m, n) == closed_phi(1 - m, 1, m - 1, n)(y)
            for s in range(m + 1):
                assert rhs_product_poly("thm1_2_eq51a", m, n, s) == closed_phi(s - m - 1, -1, m + 1, n)(y)


def test_series_construction_and_equality():
    s = PolySeries([1, X], order=2)
    assert s.coeffs == (ONE, X, ZERO)
    assert s == PolySeries([ONE, X, ZERO])
    assert s != PolySeries([ONE, X], order=3)
    with pytest.raises(ValueError):
        PolySeries([1, 2], order=0)
    with pytest.raises(ValueError):
        PolySeries([], order=None)


def test_series_pow():
    assert PolySeries([1, 1], order=2) ** 2 == PolySeries([1, 2, 1])


def _series_product(f, g, order):
    return [sum((f[i] * g[k - i] for i in range(k + 1)), ZERO) for k in range(order + 1)]


def _series_power(g, e, order):
    out = [ONE] + [ZERO] * order
    for _ in range(e):
        out = _series_product(out, g, order)
    return out


@given(
    st.sampled_from([ONE, Poly([Fraction(-3, 2)]), ZERO, Poly([half, 2])]),
    st.lists(polys, max_size=5),
    st.integers(0, 6),
)
def test_series_pow_equals_repeated_products(head, tail, e):
    # Constant terms 1 and -3/2 take Miller's recurrence; 0 and 1/2 + 2x the products.
    g = [head] + tail
    order = len(tail)
    assert (PolySeries(g) ** e).coeffs == tuple(_series_power(g, e, order))


def _naive_grow(e, weights, order):
    g = [ONE] + [ZERO] * order
    for n in range(1, order + 1):
        power = _series_power(g, e, n - 1)
        for j, (den, num) in enumerate(weights(n)):
            w = Poly([Fraction(c, den) for c in num])
            g[n] = g[n] + _naive_product(_naive_product(w, power[j]), g[n - 1 - j])
    return g


@given(st.integers(0, 4), st.integers(0, 6), st.booleans(), st.data())
def test_grow_equals_a_fraction_recurrence(e, order, last_only, data):
    # Repeated and negative denominators, zero weights; last_only is the
    # standard-hook shape, where only w_(n-1) is nonzero.
    table = {}
    for n in range(1, order + 1):
        row = data.draw(st.lists(weight_terms, min_size=n, max_size=n))
        table[n] = [(1, [])] * (n - 1) + row[-1:] if last_only else row
    got = _grow(e, table.get, order)
    assert got == _naive_grow(e, table.get, order)
    for p in got:
        _assert_canonical_pair(p)


@given(st.lists(polys, min_size=1, max_size=6), st.data(), st.integers(0, 4))
def test_series_compose_scaled_equals_full_horner(outer, data, s):
    order = len(outer) - 1
    inner = data.draw(st.lists(polys, min_size=order + 1, max_size=order + 1))
    inner[0] = data.draw(st.sampled_from([ONE, Poly([Fraction(2, 3)]), ZERO, inner[0]]))
    arg = [ZERO] + _series_power(inner, s, order)[:order]
    result = [ZERO] * (order + 1)
    for k in range(order, -1, -1):
        result = _series_product(result, arg, order)
        result[0] = result[0] + outer[k]
    got = series_compose_scaled(PolySeries(outer), PolySeries(inner), s)
    assert got.coeffs == tuple(result)


def test_solve_phi_matches_closed_phi_at_order_12():
    for a in range(1, 4):
        for b in range(1, 4):
            for s in range(4):
                series = solve_phi(a, b, s, 12)
                assert series.coeffs[0] == ONE
                for n in range(1, 13):
                    assert series.coeffs[n] == closed_phi(a, b, s, n), (a, b, s, n)


def test_series_order_mismatch_errors():
    a = PolySeries([1, 1])
    b = PolySeries([1, 1], order=3)
    for op in (lambda: a * b, lambda: series_compose_scaled(a, b, 0)):
        with pytest.raises(ValueError):
            op()


def test_series_compose_scaled():
    omega = PolySeries([1, 1], order=2)
    phi = PolySeries([1, 5, -2], order=2)
    assert series_compose_scaled(omega, phi, 0) == PolySeries([1, 1], order=2)

    omega = PolySeries([1, 1, 1])
    phi = PolySeries([1, 1, 0])
    assert series_compose_scaled(omega, phi, 1) == PolySeries([1, 1, 2])

    one = PolySeries([1], order=2)
    assert series_compose_scaled(one, phi, 3) == one


def test_series_compose_scaled_asks_for_no_coefficient_above_the_order(monkeypatch):
    omega, phi = solve_phi(1, 1, 0, 6), solve_phi(1, 1, 1, 6)
    asked, dot = [], algebra._dot
    monkeypatch.setattr(algebra, "_dot", lambda a, b, ks, w=None: asked.extend(ks) or dot(a, b, ks, w))
    assert series_compose_scaled(omega, phi, 1) == phi
    assert max(asked) == 6


def test_solve_omega_first_coefficients():
    for a, b in [(1, 1), (2, 3), (3, 1)]:
        series = solve_omega(a, b, 2)
        assert series.coeffs[0] == ONE
        assert series.coeffs[1] == X
        assert series.coeffs[2] == half * X * Poly([a, b + 1])


def test_closed_omega_values():
    assert closed_omega(1, 1, 1) == X
    assert closed_omega(2, 1, 2) == X * Poly([1, 1])
    assert closed_omega(1, 2, 2) == half * X * Poly([1, 3])
    with pytest.raises(ValueError):
        closed_omega(1, 1, 0)


def test_solve_omega_matches_closed_form():
    series = solve_omega(1, 1, 3)
    assert series.coeffs[3] == closed_omega(1, 1, 3)


def test_solve_phi_degenerates_to_omega():
    assert solve_phi(2, 3, 0, 5) == solve_omega(2, 3, 5)


def test_solve_phi_matches_closed_form():
    series = solve_phi(1, 1, 1, 6)
    assert series.coeffs[1] == X
    for n in range(1, 7):
        assert series.coeffs[n] == closed_phi(1, 1, 1, n)


def test_solve_phi_fixed_point_small():
    order = 5
    for a, b, s in [(1, 1, 1), (2, 1, 2), (1, 2, 1)]:
        omega = solve_omega(a, b, order)
        phi = solve_phi(a, b, s, order)
        assert series_compose_scaled(omega, phi, s) == phi


def test_solver_rejects_bad_parameters():
    for call in (
        lambda: solve_omega(0, 1, 3),
        lambda: solve_omega(1, 0, 3),
        lambda: solve_omega(1, 1, -1),
        lambda: solve_phi(1, 1, -1, 3),
    ):
        with pytest.raises(ValueError):
            call()
