"""Exhaustive exact verification of the hook-length identities.

Every identity family sums, over one exhaustively enumerated universe of
complete m-ary trees, a per-vertex product of linear factors in one hook
statistic, and compares the sum exactly with an independently built
closed form.  Each family is therefore one row of ``FAMILY_TABLE``: the
universe, the hook kind, the factor, the closed form with an optional
cross-check, and the parameters the family takes.  Validation, summation
and the command line all read the row; adding a family means adding a row.
The families:

====================  =========================================================
postnikov             (n!/2^n) * sum prod (1 + 1/h_v) = (n+1)^(n-1), numeric,
                      over binary trees with standard hooks.
lascoux_1_1           sum prod ((h+1)x - h + 1)/(2h) = rhs_binomial_poly(1, n).
duliu_1_2a            sum prod ((mh+1)x - h + 1)/((m+1)h) over arity-(m+1)
                      trees, standard hooks = rhs_binomial_poly(m, n).
duliu_1_2b            sum prod (x + 1/h), same universe
                      = rhs_product_poly("thm1_2_eq51a", m, n, 0).
forest_1_3a           sum prod (x + 1/H_v) over plane forests, all vertices
                      = rhs_product_poly("thm1_1_eq16", 2, n); summed over
                      binary trees through psi, where H_u = hcal_u.
forest_1_3b           sum prod ((2H-1)x - H + 1)/H = rhs_binomial_poly(2, n),
                      summed the same way.
thm1_1_eq1_6          sum prod (x + 1/hcal_v) over arity-m trees
                      = rhs_product_poly("thm1_1_eq16", m, n).
thm1_1_eq1_7          sum prod ((m*hcal-1)x - hcal + 1)/((m-1)hcal)
                      = rhs_binomial_poly(m, n).
thm1_2_eq5_1a         sum prod (x + 1/hbb_v^S) over arity-(m+1) trees
                      = rhs_product_poly("thm1_2_eq51a", m, n, |S|).
thm1_2_eq5_1b         sum prod (((m-s)hbb+1)x - hbb + 1)/((m-s+1)hbb)
                      = rhs_binomial_poly(m, n); independent of S entirely.
cor1_first            sum prod (1/hcal) = m^n * rhs_binomial_poly(m, n)(1/m),
                      numeric; cross-checked against the x = 0 value of the
                      thm1_1_eq1_6 right side.
cor1_second           sum prod (m - 1/hcal) = (m-1)^n (mn+1)^(n-1) / n!,
                      cross-checked at x = -m.
cor2_first            sum prod (m-s-1 + 1/hbb^S)
                      = rhs_binomial_poly(m, n)(m-s), cross-checked at
                      x = m-s-1 of the thm1_2_eq5_1a right side.
cor2_second           sum prod (m-s + 1/hbb^S) = (m-s+1)^n (mn+1)^(n-1) / n!,
                      cross-checked at x = m-s.
cor2_third            sum prod (x - hbb^[m] + 1)/hbb^[m]
                      = rhs_binomial_poly(m, n), with S the full set [m].
====================  =========================================================

``check_recurrence_thm1_1`` and ``check_gf_relations`` verify the
convolution recurrence and the truncated-series relations behind the two
main families.  Each grows a series with ``algebra._grow`` from the
constant 1 (the second-kind one from the differential relation) and
compares it with the enumerated sums.

Summations are associative exact reductions, so ``verify_suite`` may
partition a grid across worker processes and still assemble a
deterministic result.  The acceptance grids and ``hooktrees verify`` list
their specs through one builder, ``_grid``, in the order m, S, n, family,
and reports come back in that order.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import combinations, repeat
from operator import mul
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import (
    Poly,
    PolySeries,
    _from_pair,
    _grow,
    rhs_binomial_poly,
    rhs_product_poly,
    series_compose_scaled,
)
# Unused here: hookbench's tracer wraps enumerate_forests and the standard, second-kind and forest
# hook walks as names of this module.
from .hooks import (
    _key_counts, _position_set, first_kind_hooks, forest_hooks, second_kind_hooks, standard_hooks,
)
from .trees import count_trees, enumerate_forests, enumerate_trees


class Family(NamedTuple):
    """One identity family as data.

    ``arity`` maps m to the arity of the tree universe.  ``hooks`` names the
    hook statistic: "standard", "first" or "second".  ``factor(m, s, h)`` is
    the per-vertex factor at hook value h, ``(c1, c0, d)`` for (c1*x + c0)/d
    in a polynomial family and ``(c0, d)`` for c0/d in a numeric one.
    ``rhs(m, n, s)`` is the closed form and ``cross(m, n, s)``, if given, an
    independent route to the same value.  ``min_m`` is ``None`` for families
    without m.  ``S`` is "none", "subset" (any subset of [m], empty by
    default) or "full" (exactly [m]).  ``scale(n)`` multiplies the summed
    left side.
    """

    arity: Callable[[int | None], int]
    hooks: str
    factor: Callable[[int, int, int], tuple]
    rhs: Callable[[int, int, int], Poly | Fraction]
    cross: Callable[[int, int, int], Poly | Fraction] | None = None
    min_m: int | None = None
    min_n: int = 0
    S: str = "none"
    scale: Callable[[int], Fraction] | None = None


# The closed forms name ``rhs_binomial_poly`` and ``rhs_product_poly`` in the
# function bodies, so they resolve through this module's globals on each call.
FAMILY_TABLE: dict[str, Family] = {
    "postnikov": Family(
        lambda m: 2, "standard", lambda m, s, h: (h + 1, h),
        lambda m, n, s: Fraction((n + 1) ** (n - 1)),
        min_n=1, scale=lambda n: Fraction(math.factorial(n), 2**n),
    ),
    "lascoux_1_1": Family(
        lambda m: 2, "standard", lambda m, s, h: (h + 1, 1 - h, 2 * h),
        lambda m, n, s: rhs_binomial_poly(1, n),
    ),
    "duliu_1_2a": Family(
        lambda m: m + 1, "standard", lambda m, s, h: (m * h + 1, 1 - h, (m + 1) * h),
        lambda m, n, s: rhs_binomial_poly(m, n), min_m=1,
    ),
    "duliu_1_2b": Family(
        lambda m: m + 1, "standard", lambda m, s, h: (h, 1, h),
        lambda m, n, s: rhs_product_poly("thm1_2_eq51a", m, n, 0), min_m=1,
    ),
    "forest_1_3a": Family(
        lambda m: 2, "first", lambda m, s, h: (h, 1, h),
        lambda m, n, s: rhs_product_poly("thm1_1_eq16", 2, n),
    ),
    "forest_1_3b": Family(
        lambda m: 2, "first", lambda m, s, h: (2 * h - 1, 1 - h, h),
        lambda m, n, s: rhs_binomial_poly(2, n),
    ),
    "thm1_1_eq1_6": Family(
        lambda m: m, "first", lambda m, s, h: (h, 1, h),
        lambda m, n, s: rhs_product_poly("thm1_1_eq16", m, n), min_m=2,
    ),
    "thm1_1_eq1_7": Family(
        lambda m: m, "first", lambda m, s, h: (m * h - 1, 1 - h, (m - 1) * h),
        lambda m, n, s: rhs_binomial_poly(m, n), min_m=2,
    ),
    "thm1_2_eq5_1a": Family(
        lambda m: m + 1, "second", lambda m, s, h: (h, 1, h),
        lambda m, n, s: rhs_product_poly("thm1_2_eq51a", m, n, s), min_m=1, S="subset",
    ),
    "thm1_2_eq5_1b": Family(
        lambda m: m + 1, "second", lambda m, s, h: ((m - s) * h + 1, 1 - h, (m - s + 1) * h),
        lambda m, n, s: rhs_binomial_poly(m, n), min_m=1, S="subset",
    ),
    "cor1_first": Family(
        lambda m: m, "first", lambda m, s, h: (1, h),
        lambda m, n, s: m**n * rhs_binomial_poly(m, n)(Fraction(1, m)),
        cross=lambda m, n, s: rhs_product_poly("thm1_1_eq16", m, n)(0), min_m=2,
    ),
    "cor1_second": Family(
        lambda m: m, "first", lambda m, s, h: (m * h - 1, h),
        lambda m, n, s: Fraction((m - 1) ** n, math.factorial(n)) * Fraction(m * n + 1) ** (n - 1),
        cross=lambda m, n, s: (-1) ** n * rhs_product_poly("thm1_1_eq16", m, n)(-m), min_m=2,
    ),
    "cor2_first": Family(
        lambda m: m + 1, "second", lambda m, s, h: ((m - s - 1) * h + 1, h),
        lambda m, n, s: rhs_binomial_poly(m, n)(m - s),
        cross=lambda m, n, s: rhs_product_poly("thm1_2_eq51a", m, n, s)(m - s - 1),
        min_m=1, S="subset",
    ),
    "cor2_second": Family(
        lambda m: m + 1, "second", lambda m, s, h: ((m - s) * h + 1, h),
        lambda m, n, s: Fraction((m - s + 1) ** n, math.factorial(n)) * Fraction(m * n + 1) ** (n - 1),
        cross=lambda m, n, s: rhs_product_poly("thm1_2_eq51a", m, n, s)(m - s),
        min_m=1, S="subset",
    ),
    "cor2_third": Family(
        lambda m: m + 1, "second", lambda m, s, h: (1, 1 - h, h),
        lambda m, n, s: rhs_binomial_poly(m, n), min_m=1, S="full",
    ),
}

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class IdentitySpec:
    """One identity instance: a family plus its parameters.

    ``m`` is the family's branching parameter (``None`` for the families
    that do not take one); ``S`` the pruned position set for the
    second-kind families, normalized to a frozenset.
    """

    family: str
    m: int | None = None
    n: int = 0
    S: frozenset[int] | None = None

    def __post_init__(self):
        if self.S is not None and not isinstance(self.S, frozenset):
            object.__setattr__(self, "S", frozenset(self.S))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact check.

    ``passed`` is True iff ``lhs`` equals ``rhs`` exactly (both are a Poly,
    a Fraction, or -- for the structural series checks -- a tuple of Poly
    coefficients).  ``note`` carries diagnostics for reports produced from
    invalid parameters by ``verify_suite``.
    """

    spec: IdentitySpec
    lhs: Poly | Fraction | tuple | None
    rhs: Poly | Fraction | tuple | None
    passed: bool
    trees_visited: int
    elapsed: float
    note: str | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validated(spec: IdentitySpec) -> IdentitySpec:
    """Check n and m against the family's row, S with ``_position_set`` and the row's rule; fill in S."""
    f = spec.family
    row = FAMILY_TABLE.get(f) if isinstance(f, str) else None
    if row is None:
        raise ValueError(f"unknown identity family {f!r}")
    for name, value, low in (("n", spec.n, row.min_n), ("m", spec.m, row.min_m)):
        if low is None:
            if value is not None:
                raise ValueError(f"{f} does not take an {name} parameter")
        elif not _is_int(value):
            raise ValueError(f"{f} needs an integer {name}, got {value!r}")
        elif value < low:
            raise ValueError(f"{f} needs {name} >= {low}, got {value!r}")
    if row.S == "none":
        if spec.S is not None:
            raise ValueError(f"{f} does not take an S parameter")
        return spec
    full = frozenset(range(1, spec.m + 1))
    s_set = _position_set((full if row.S == "full" else ()) if spec.S is None else spec.S, spec.m + 1)
    if row.S == "full" and s_set != full:
        raise ValueError(f"{f} requires S = [m], got {sorted(s_set)}")
    return replace(spec, S=s_set)


# ---------------------------------------------------------------------------
# Summation engine: count, then sum.  A tree's product of per-vertex factors
# depends only on its hook multiset, and a universe has few (4,862 binary
# trees with 9 internal vertices have 489 first-kind multisets).  The count
# step, ``_lhs``, counts the sorted hook tuples into a ``Counter``.  For the
# standard and second kinds, ``hooks._key_counts`` counts them size by size
# from the distinct prime keys of the subtrees and their multiplicities, with
# no tree built or walked; a caller may hand it one level list per mode to
# share between calls.  The first kind still walks every enumerated tree:
# ``hookbench``'s first-kind test expects one ``first_kind_hooks`` call per
# tree.  The sum step, ``_multiset_sum``, evaluates the sum at x = 2**bits
# (Kronecker substitution): each factor is packed once into one int over the
# lcm L of the denominators, a multiset's product is one ``math.prod`` in C,
# and the coefficients, over L**n, are read back out once.
# ---------------------------------------------------------------------------


def _multiset_sum(counts: Counter, table) -> Poly:
    """The sum step: the sum over ``counts`` of count * the product of the (d, numerators) ``table[h]``.

    All keys are one universe's multisets, of one length n; mixed lengths raise
    ValueError.  Entry 0 of ``table`` is never read.  No coefficient exceeds
    total * norm**n, norm the largest l1 norm of a factor over L; one more bit is the sign.
    """
    lengths = set(map(len, counts))
    if len(lengths) > 1:
        raise ValueError(f"hook multisets of mixed lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    rows = table[1:]
    lcm = math.lcm(*[d for d, _ in rows])
    norm = max([sum(map(abs, nums)) * abs(lcm // d) for d, nums in rows], default=0)
    bits = (counts.total() * norm**n).bit_length() + 1
    packed = [0]
    for d, nums in rows:
        value, scale = 0, lcm // d
        for c in reversed(nums):
            value = (value << bits) + c * scale
        packed.append(value)
    total = sum(map(mul, counts.values(), map(math.prod, map(map, repeat(packed.__getitem__), counts))))
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(n + 1):  # the factors are linear, so the sum has degree <= n
        c = total & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        total = (total - c) >> bits
    return _from_pair(lcm**n, out)


def _factor_table(row: Family, m: int | None, s: int, n: int) -> list[tuple[int, list[int]]]:
    """The row's factor at hook values 0..n: (c1*x + c0)/d as (d, [c0, c1]), c0/d as (d, [c0]).

    Hooks are >= 1, so entry 0 is never read.
    """
    return [(d, cs[::-1]) for *cs, d in (row.factor(m, s, h) for h in range(n + 1))]


def _lhs(
    family: str, m: int | None, n: int, S: frozenset[int] | None, levels: dict | None = None
) -> tuple[Poly | Fraction, int]:
    """The count step, then the enumerated left side of ``family`` and the number of trees.

    The standard and second kinds are counted by key, hbb with an empty S
    being h; the first kind walks each enumerated tree.  ``levels``, if
    given, maps each mode (arity, S) to its key levels, which a call of that
    mode extends and reads, so each (mode, size) level is built once in any
    call order.  Performs no validation: callers check m, n and S first.
    """
    row = FAMILY_TABLE[family]
    if row.hooks == "first":
        counts = Counter(map(tuple, map(sorted, map(first_kind_hooks, enumerate_trees(row.arity(m), n)))))
    else:
        mode = (row.arity(m), S or frozenset())
        counts = _key_counts(*mode, n, None if levels is None else levels.setdefault(mode, []))
    table = _factor_table(row, m, len(S or ()), n)
    total = _multiset_sum(counts, table)
    if len(table[0][1]) == 1:
        # A numeric row is read at x = 0 so that a zero sum renders "0", not the zero
        # Poly's empty coefficient list: cor2_first, m = 2, S = {1,2}, n >= 1 sums to 0
        # (every tree has a vertex with hbb = 1, whose factor m-s-1+1/hbb is 0).
        total = total(0)
    if row.scale is not None:
        total = row.scale(n) * total
    return total, counts.total()


def check_identity(
    spec: IdentitySpec, *, _corrupt_rhs: bool = False, _levels: dict | None = None
) -> VerificationReport:
    """Verify one identity instance exactly.

    ``_corrupt_rhs`` is a test hook that perturbs the closed form by +1 so
    negative controls can confirm failures surface as ``passed=False``.
    ``_levels`` is ``verify_suite``'s key-level memo, one level list per mode,
    passed on to ``_lhs``; a call without it keeps nothing.
    """
    spec = _validated(spec)
    start = perf_counter()
    row = FAMILY_TABLE[spec.family]
    m, n, s = spec.m, spec.n, len(spec.S or ())
    lhs, visited = _lhs(spec.family, m, n, spec.S, _levels)
    rhs = row.rhs(m, n, s)
    cross_ok = row.cross is None or rhs == row.cross(m, n, s)
    if _corrupt_rhs:
        rhs = rhs + 1
    passed = cross_ok and lhs == rhs
    note = None if cross_ok else "closed-form cross-check mismatch"
    return VerificationReport(spec, lhs, rhs, passed, visited, perf_counter() - start, note)


def check_recurrence_thm1_1(m: int, n: int) -> VerificationReport:
    """Compare direct enumeration with the root-composition convolution.

    The recurrence computes the degree-n sum from the n smaller sums: group
    the root compositions (i_1, ..., i_m) of n-1 by j = i_1 + ... + i_(m-1);
    the root vertex contributes the eq1_7 factor at hook value j+1, the
    first m-1 subtrees contribute [t^j] of the (m-1)-th power of the partial
    generating series, the last subtree the sum at size n-1-j.  So it is
    ``algebra._grow`` at e = m-1 with w_j the eq1_7 factor at hook value j+1.
    The recurrence starts from the constant 1, so the two routes share only
    the row's factor table and the closed forms they are checked against.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    start = perf_counter()
    roots = _factor_table(FAMILY_TABLE["thm1_1_eq1_7"], m, 0, n)[1:]
    grown = _grow(m - 1, lambda k: roots, n)[n]
    direct, visited = _lhs("thm1_1_eq1_7", m, n, None)
    spec = IdentitySpec("recurrence_thm1_1", m=m, n=n)
    return VerificationReport(spec, direct, grown, direct == grown, visited, perf_counter() - start)


def check_gf_relations(m: int, s: int, order: int) -> VerificationReport:
    """Check the truncated-series relations satisfied by the second-kind sums.

    With A(t) the generating series of the eq5_1a sums for pruned positions
    {1..s} on arity-(m+1) trees, two facts are verified through the given
    truncation order:

    * the differential relation A' = (x+1) A^(m+1) + ((m+1)x + s) t A^m A',
      whose coefficient of t^(n-1) is the recurrence

          n*A_n = sum_{j<n} [t^j]A^m * ((x+1) + ((m+1)x + s)*(n-1-j)) * A_(n-1-j),

      ``algebra._grow`` at e = m; it starts from the constant 1, so it
      shares nothing with the enumerated A but the comparison; and
    * the composition A(t) = B(t * A(t)^s) where B is the s = 0 series of
      the smaller arity m-s+1 (trivially the identity when s = 0).

    The report's lhs is the enumerated A's coefficients twice, its rhs the
    grown series followed by the composed one, so ``passed`` remains an
    exact lhs == rhs comparison.
    """
    if m < 1 or not 0 <= s <= m:
        raise ValueError(f"need m >= 1 and 0 <= s <= m, got m={m}, s={s}")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    start = perf_counter()
    s_rep = frozenset(range(1, s + 1))
    levels: dict = {}  # at s = 0 both series have one mode, so they share its key levels

    def enumerated(m_: int, S: frozenset[int]) -> tuple[PolySeries, int]:
        sums = [_lhs("thm1_2_eq5_1a", m_, k, S, levels) for k in range(order + 1)]
        return PolySeries([poly for poly, _ in sums], order=order), sum(seen for _, seen in sums)

    (series_a, seen_a), (series_b, seen_b) = enumerated(m, s_rep), enumerated(m - s, frozenset())
    grown = _grow(m, lambda n: [(n, [1 + s * i, 1 + (m + 1) * i]) for i in reversed(range(n))], order)
    composed = series_compose_scaled(series_b, series_a, s)
    lhs = series_a.coeffs * 2
    rhs = (*grown, *composed.coeffs)
    spec = IdentitySpec("gf_relations", m=m, n=order, S=s_rep)
    return VerificationReport(spec, lhs, rhs, lhs == rhs, seen_a + seen_b, perf_counter() - start)


@dataclass(frozen=True)
class SuiteResult:
    """All reports of one grid run plus the aggregate outcome."""

    reports: tuple[VerificationReport, ...]
    elapsed: float

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _run_one(spec: IdentitySpec, corrupt: bool = False, levels: dict | None = None) -> VerificationReport:
    try:
        return check_identity(spec, _corrupt_rhs=corrupt, _levels=levels)
    except ValueError as exc:
        note = str(exc)
    except Exception as exc:
        note = f"{type(exc).__name__}: {exc}"
    return VerificationReport(spec, None, None, False, 0, 0.0, note=note)


def verify_suite(
    grid: Iterable[IdentitySpec], jobs: int = 1, _corrupt_rhs: bool = False
) -> SuiteResult:
    """Run ``check_identity`` over a grid, optionally across processes.

    Specs run in the order given.  The standard and second kinds share one
    key-level memo, one level list per mode, which lives for this call (for
    one chunk in a pool worker), so each (mode, size) level is built once.
    The pool never has more workers than ``jobs``, the CPU count or the
    number of specs.  Results are deterministic and independent of the
    worker count: exact arithmetic makes the reductions order-free and
    reports come back in grid order.  A spec with invalid parameters yields
    a failed report carrying the error text instead of aborting the run,
    and so does a spec whose check raises any other exception (its note
    names the type).
    """
    specs = list(grid)
    start = perf_counter()
    run = partial(_run_one, corrupt=_corrupt_rhs, levels={})
    workers = min(jobs, os.cpu_count() or 1, len(specs))
    if workers > 1:
        import multiprocessing  # only here, so that importing the package skips it

        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(run, specs)
    else:
        reports = list(map(run, specs))
    return SuiteResult(tuple(reports), perf_counter() - start)


def ns_within_budget(arity: int, cap: int) -> list[int]:
    """All n (from 0) whose universe size count_trees(arity, n) stays <= cap."""
    if arity < 2:  # one unary tree of every size: no cap would end the list
        raise ValueError(f"need arity >= 2, got {arity}")
    ns = []
    n = 0
    while count_trees(arity, n) <= cap:
        ns.append(n)
        n += 1
    return ns


def all_position_subsets(m: int) -> list[frozenset[int]]:
    """Every subset of {1..m}, smallest first, then lexicographic."""
    return [frozenset(c) for k in range(m + 1) for c in combinations(range(1, m + 1), k)]


def _grid(families, ms, ns, subsets=lambda m: (None,)) -> list[IdentitySpec]:
    """Every spec over m, then S in ``subsets(m)``, then n in ``ns(m)``, then family."""
    return [IdentitySpec(f, m=m, n=n, S=S)
            for m in ms for S in subsets(m) for n in ns(m) for f in families]


def grid_theorem1(cap: int = 200_000, ms: Sequence[int] = (2, 3, 4, 5)) -> list[IdentitySpec]:
    """Both first-kind families over every n within the universe budget."""
    return _grid(("thm1_1_eq1_6", "thm1_1_eq1_7"), ms, lambda m: ns_within_budget(m, cap))


def grid_theorem2(cap: int = 50_000, ms: Sequence[int] = (1, 2, 3)) -> list[IdentitySpec]:
    """Both second-kind families, every subset S, every n within budget."""
    return _grid(("thm1_2_eq5_1a", "thm1_2_eq5_1b"), ms, lambda m: ns_within_budget(m + 1, cap),
                 all_position_subsets)


def grid_priors(cap: int = 50_000) -> list[IdentitySpec]:
    """The precursor identities: numeric, binomial, standard-hook, forest."""
    return (
        _grid(("postnikov",), (None,), lambda m: range(1, 10))
        + _grid(("lascoux_1_1",), (None,), lambda m: range(10))
        + _grid(("duliu_1_2a", "duliu_1_2b"), (1, 2, 3), lambda m: ns_within_budget(m + 1, cap))
        + _grid(("forest_1_3a", "forest_1_3b"), (None,), lambda m: range(9))
    )


def grid_corollaries() -> list[IdentitySpec]:
    """The five special-value identities on their acceptance ranges."""
    return (
        _grid(("cor1_first", "cor1_second"), (2, 3, 4), lambda m: range(7))
        + _grid(("cor2_first", "cor2_second"), (1, 2, 3), lambda m: range(6), all_position_subsets)
        + _grid(("cor2_third",), (1, 2, 3), lambda m: range(6))
    )


def default_grid() -> list[IdentitySpec]:
    """The full identity grid used by the acceptance suite."""
    return grid_theorem1() + grid_theorem2() + grid_priors() + grid_corollaries()
