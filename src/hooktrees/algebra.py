"""Exact univariate polynomials and truncated power series.

Every operation is exact, on ``int`` and ``fractions.Fraction``; there is
no floating point anywhere in this package.  ``Poly`` is a dense polynomial
in the statistic variable x, ``PolySeries`` a power series in the size
variable t truncated at a fixed order, with ``Poly`` coefficients.  A
``Poly``'s one stored value is its ``pair``, (d, integer numerators); its
``Fraction`` coefficients, ``coeffs``, are built from the pair on each read,
so only ``str`` and ``repr`` pay for them: evaluation, at a rational point or
a Poly, runs Horner on the integer numerators, and
``cli.coefficient_strings`` prints from the pair.  Poly arithmetic and the
series steps share one kernel on pairs: ``_times`` multiplies numerator
lists and ``_exact_sum`` adds (d, numerator list) terms in one pass over the
lcm of their d, handing the Poly the pair it already has.  The enumerated
sums do not use it: ``identities._multiset_sum`` evaluates them at one
packed integer and hands ``_from_pair`` the coefficients.  ``_dot``,
coefficient k of sum_j w_j*A_j*B_(k-j), is the one series step on the
kernel: series products, composition and ``_miller_step`` (Miller's power
recurrence) call it on plain Poly lists.  ``_grow`` is the one
root-decomposition recurrence, G_n = sum_j w_j*[t^j]G^e*G_(n-1-j), with
three callers that feed it their weights: ``solve_phi``, and in
``identities`` ``check_recurrence_thm1_1`` (the first-kind convolution) and
``check_gf_relations`` (the second-kind differential relation).

On top of the two value types the module provides coefficient-recurrence
solvers for two first-order series equations::

    W' = x*W^(b+1) + a*t*W^b*W'                 (solve_omega / closed_omega)
    F' = x*F^(b+s+1) + (a+s*x)*t*F^(b+s)*F'     (solve_phi / closed_phi)

where the prime is d/dt.  The first is the s = 0 case of the second, and
the second is the fixed point F(t) = W(t*F(t)^s) of the first, which
``series_compose_scaled`` can verify directly.  Each right-hand side of the
identity checks is ``closed_phi`` at one (a, b, s), built by one loop, ``_phi``:

    rhs_binomial_poly(m, n)                       (-1, 0, m)        at x
    rhs_product_poly("thm1_1_eq16", m, n)         (1-m, 1, m-1)     at x+1
    rhs_product_poly("thm1_2_eq51a", m, n, s)     (s-m-1, -1, m+1)  at x+1

All values are immutable (``PolySeries`` is a frozen dataclass, ``Poly``
guards its one slot by hand); every function is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    The value is ``pair`` = (d, nums), integers: coefficient i, of x**i, is
    nums[i]/d, with d > 0 the lcm of the coefficients' denominators, so
    gcd(d, *nums) == 1, and no trailing zero in nums (the zero polynomial
    has pair (1, ()) and degree -1).  Arithmetic, comparison, hashing and
    pickling read only the pair, and so do evaluation (composition
    included) and ``cli.coefficient_strings``.  ``coeffs``, the tuple of
    ``Fraction`` coefficients, is built from it on each read; only
    ``__str__`` and ``__repr__`` read it.  Instances are immutable.
    """

    __slots__ = ("pair",)

    pair: tuple[int, tuple[int, ...]]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(_exact(c)) for c in coeffs]
        # Unpack a list into math.lcm (also in _exact_sum), not a generator: a tuple
        # built from a generator bypasses the tuple free list on allocation but joins
        # it when freed, filling it to its cap; that raised the series peak RSS by ~7%.
        d = math.lcm(*[c.denominator for c in cs])
        nums = [c.numerator * d // c.denominator for c in cs]
        object.__setattr__(self, "pair", _from_pair(d, nums).pair)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        d, nums = self.pair
        return tuple([Fraction(c, d) for c in nums])

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        d, nums = self.pair
        return (_from_pair, (d, list(nums)))

    @property
    def degree(self) -> int:
        return len(self.pair[1]) - 1

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.pair == other.pair

    def __hash__(self):
        # A constant hashes like the scalar it equals, ZERO like 0.
        d, nums = self.pair
        if len(nums) > 1:
            return hash(self.pair)
        return hash(Fraction(nums[0], d) if nums else 0)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _exact_sum([self.pair, other.pair])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        d, nums = self.pair
        return _from_pair(d, [-c for c in nums])

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        (da, a), (db, b) = self.pair, other.pair
        return _from_pair(da * db, _times(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, point: Scalar | Poly) -> Fraction | Poly:
        """Exact Horner evaluation in integers at a point a/b: a rational, or a Poly with b = 1."""
        compose = isinstance(point, Poly)
        a, b = (point, 1) if compose else (_exact(point).numerator, point.denominator)
        (d, nums), acc, power = self.pair, 0, 1  # to sum nums[i]*a**i*b**(deg-i) and b**(deg+1)
        for c in reversed(nums):
            acc, power = acc * a + c * power, power * b
        return _coerce(acc) * Fraction(1, d) if compose else Fraction(acc * b, d * power)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag}{var}"
                else:
                    body = f"({mag}){var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _from_pair(d: int, nums: list[int]) -> Poly:
    """The Poly (nums[0] + nums[1]*x + ...)/d, d > 0, reduced to its canonical ``pair``.

    Trailing zeros are popped off ``nums`` in place, so callers pass a list of their own.
    """
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(d, *nums)
    poly = object.__new__(Poly)
    pair = (d, tuple(nums)) if g == 1 else (d // g, tuple([c // g for c in nums]))
    object.__setattr__(poly, "pair", pair)
    return poly


def _times(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists (their convolution); [] is zero."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return out


def _exact_sum(terms: Sequence[tuple[int, Sequence[int]]]) -> Poly:
    """The Poly sum of the terms (d, [c_0, c_1, ...]), each (c_0 + c_1*x + ...)/d, d != 0.

    One pass: each term's numerators, times lcm // d, add into one integer list
    over the lcm of all the d.  No gcd is paid per term, and one gcd reduces the
    total to the result's ``pair``.
    """
    lcm = math.lcm(*[den for den, _ in terms])
    out = [0] * max([len(num) for _, num in terms], default=0)
    for den, num in terms:
        scale = lcm // den
        for i, c in enumerate(num):
            out[i] += c * scale
    return _from_pair(lcm, out)


def _exact(value: Scalar) -> Scalar:
    """The value itself if it is an int or a Fraction; a float or anything else raises TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is not an int or a Fraction")
    return value


def _coerce(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return _from_pair(value.denominator, [value.numerator])
    return None


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


@dataclass(frozen=True)
class PolySeries:
    """Power series in t truncated at a fixed order, with Poly coefficients.

    ``coeffs[n]`` is the coefficient of t**n; ``__init__`` pads them to
    exactly ``order + 1``.  The product, and ``series_compose_scaled``,
    require both operands to share the same truncation order and never
    consult anything above it.  Equality and hashing read (order, coeffs).
    """

    order: int
    coeffs: tuple[Poly, ...]

    def __init__(self, coeffs: Iterable[Union[Poly, Scalar]] = (), order: int | None = None):
        polys = [c if isinstance(c, Poly) else Poly([c]) for c in coeffs]
        if order is None:
            if not polys:
                raise ValueError("empty series needs an explicit order")
            order = len(polys) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(polys) > order + 1:
            raise ValueError(f"{len(polys)} coefficients exceed order {order}")
        polys.extend([ZERO] * (order + 1 - len(polys)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(polys))

    def _match(self, other: "PolySeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __mul__(self, other) -> "PolySeries":
        if not isinstance(other, PolySeries):
            return NotImplemented
        self._match(other)
        return PolySeries(_dot(self.coeffs, other.coeffs, range(self.order + 1)), order=self.order)

    def __pow__(self, exponent: int) -> "PolySeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        if self.coeffs[0].degree == 0:
            power: list[Poly] = []
            while len(power) <= self.order:
                power.append(_miller_step(self.coeffs, power, exponent))
            return PolySeries(power, order=self.order)
        result = PolySeries([ONE], order=self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self):
        return f"PolySeries({[str(c) for c in self.coeffs]}, order={self.order})"


def _dot(a: Sequence[Poly], b: Sequence[Poly], ks: Iterable[int], weights=None) -> list[Poly]:
    """Coefficient k of sum_j w_j * A_j * B_(k-j), for each k in ``ks``.

    j runs over the indices where A_j and B_(k-j) exist, so no index above k
    is read.  ``weights[j]`` is w_j as a (denominator, numerator list) pair,
    all 1 if omitted.
    """
    out = []
    for k in ks:
        terms = []
        for j in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            (da, ca), (db, cb) = a[j].pair, b[k - j].pair
            if ca and cb:
                num = _times(ca, cb)
                if weights is not None:
                    dw, cw = weights[j]
                    da, num = da * dw, _times(cw, num)
                terms.append((da * db, num))
        out.append(_exact_sum(terms))
    return out


def _miller_step(g, power, e: int) -> Poly:
    """Coefficient k = len(power) of P = G^e from G_0..G_k and P_0..P_(k-1), G_0 a nonzero constant.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), read off G*P' = e*G'*P:
    P_k = (1/(k*G_0)) * sum_{j=1..k} ((e+1)*j - k) * G_j * P_(k-j), with P_0 = G_0^e.
    ``g`` and ``power`` are Poly sequences; G_0 = c/d in lowest terms is its ``pair``.
    """
    k, (d, (c,)) = len(power), g[0].pair
    if k == 0:
        return _from_pair(d**e, [c**e])
    weights = [(k * c, [((e + 1) * j - k) * d]) for j in range(k + 1)]
    return _dot(g, power, [k], weights)[0]


def series_compose_scaled(outer: PolySeries, inner: PolySeries, s: int) -> PolySeries:
    """Compose ``outer(t * inner(t)**s)``, truncated to the common order.

    The argument has zero constant term, so the composition of truncations
    is well-defined, and Horner's rule, which multiplies by it k more times
    after taking in ``outer`` coefficient k, needs only coefficients 0..order-k
    of that partial result: no others are computed.  Raises ``ValueError`` on
    order mismatch or negative s.
    """
    if s < 0:
        raise ValueError("composition power s must be nonnegative")
    outer._match(inner)
    order = outer.order
    arg = (ZERO, *(inner**s).coeffs)
    result: list[Poly] = []
    for k in range(order, -1, -1):
        result = _dot(result, arg, range(order - k + 1))
        result[0] = result[0] + outer.coeffs[k]
    return PolySeries(result, order=order)


def _phi(a: int, b: int, s: int, n: int, shift: int) -> Poly:
    """(y/n!) * prod_{i=1..n-1} (a*i + (b*(n-i) + s*n + 1)*y) at y = x + shift; ONE for n = 0."""
    if n == 0:
        return ONE
    num = [shift, 1]
    for i in range(1, n):
        k = b * (n - i) + s * n + 1
        num = _times(num, [a * i + k * shift, k])
    return _exact_sum([(math.factorial(n), num)])


def rhs_binomial_poly(m: int, n: int) -> Poly:
    """The closed form (1/(mn+1)) * C((mn+1)*x, n) as a polynomial in x.

    C(y, n) is the falling-factorial binomial y*(y-1)*...*(y-n+1)/n!; phi
    at (-1, 0, m), x.  Degree exactly n for n >= 1; the constant 1 for n = 0.
    """
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    return _phi(-1, 0, m, n, 0)


def rhs_product_poly(family: str, m: int, n: int, s: int = 0) -> Poly:
    """Product-of-linear-factors closed forms, one per identity family.

    thm1_1_eq16:   ((x+1)/n!) * prod_{i=1..n-1} ((mn+1-i)(x+1) - (m-1)i),
                   for m >= 2 (s is ignored); phi at (1-m, 1, m-1), x+1.
    thm1_2_eq51a:  ((x+1)/n!) * prod_{i=1..n-1} ((mn+i+1)(x+1) - (m-s+1)i),
                   for m >= 1 and 0 <= s <= m; phi at (s-m-1, -1, m+1), x+1.

    Both return the constant 1 for n = 0.
    """
    if family == "thm1_1_eq16":
        if m < 2:
            raise ValueError(f"thm1_1_eq16 needs m >= 2, got {m}")
        a, b, phi_s = 1 - m, 1, m - 1
    elif family == "thm1_2_eq51a":
        if m < 1 or not 0 <= s <= m:
            raise ValueError(f"thm1_2_eq51a needs m >= 1 and 0 <= s <= m, got m={m}, s={s}")
        a, b, phi_s = s - m - 1, -1, m + 1
    else:
        raise ValueError(f"unknown product family {family!r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _phi(a, b, phi_s, n, 1)


def closed_phi(a: int, b: int, s: int, n: int) -> Poly:
    """Coefficient n of the fixed-point series: (x/n!) * prod_{i=1..n-1} (a*i + b*(n-i)*x + (s*n+1)*x)."""
    if n < 1:
        raise ValueError(f"closed form defined for n >= 1, got {n}")
    return _phi(a, b, s, n, 0)


def _grow(e: int, weights: Callable[[int], list], order: int) -> list[Poly]:
    """G_0..G_order: G_0 = 1, G_n = sum_{j<n} w_j * [t^j]G^e * G_(n-1-j), w = weights(n).

    A tree's root decomposition: a root of weight w_j above e subtrees of
    total size j and one of size n-1-j.  w_j is a (denominator, numerator
    list) pair.  [t^(n-1)]G^e reads only G_0..G_(n-1), so ``_miller_step``
    extends the power by one coefficient per n.  Callers: ``solve_phi``,
    ``identities.check_recurrence_thm1_1`` and ``identities.check_gf_relations``.
    """
    g, power = [ONE], []
    for n in range(1, order + 1):
        power.append(_miller_step(g, power, e))
        g += _dot(power, g, [n - 1], weights(n))
    return g


def solve_phi(a: int, b: int, s: int, order: int) -> PolySeries:
    """Solve F' = x*F^(b+s+1) + (a+s*x)*t*F^(b+s)*F' with F = 1 + O(t), coefficient by coefficient.

    Matching the coefficient of t^(n-1) gives the linear recurrence

        n*F_n = sum_{j=0..n-1} [t^j]F^(b+s) * (x + (a+s*x)*(n-1-j)) * F_(n-1-j)

    which is ``_grow`` at e = b+s with weight w_j = (x + (a+s*x)*(n-1-j))/n.
    """
    if a < 1 or b < 1 or s < 0:
        raise ValueError(f"need a, b >= 1 and s >= 0; got a={a}, b={b}, s={s}")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    grown = _grow(b + s, lambda n: [(n, [a * i, 1 + s * i]) for i in reversed(range(n))], order)
    return PolySeries(grown, order=order)


def closed_omega(a: int, b: int, n: int) -> Poly:
    """Coefficient n of the solved series W: ``closed_phi`` with s = 0."""
    return closed_phi(a, b, 0, n)


def solve_omega(a: int, b: int, order: int) -> PolySeries:
    """Solve W' = x*W^(b+1) + a*t*W^b*W' with W = 1 + O(t): ``solve_phi`` with s = 0."""
    return solve_phi(a, b, 0, order)
