"""Identity checks: left-side summations, closed forms, and the suite runner."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooktrees import hooks, identities
from hooktrees.cli import coefficient_strings
from hooktrees.algebra import ONE, Poly, X, rhs_binomial_poly, rhs_product_poly
from hooktrees.hooks import first_kind_hooks, forest_hooks, second_kind_hooks, standard_hooks
from hooktrees.identities import (
    FAMILIES,
    FAMILY_TABLE,
    IdentitySpec,
    all_position_subsets,
    check_gf_relations,
    check_identity,
    check_recurrence_thm1_1,
    default_grid,
    grid_corollaries,
    grid_priors,
    grid_theorem1,
    grid_theorem2,
    ns_within_budget,
    verify_suite,
)
from hooktrees.trees import count_trees, enumerate_forests, enumerate_trees

half = Fraction(1, 2)


def lhs_of(family, m, n, S=None):
    return check_identity(IdentitySpec(family, m=m, n=n, S=S)).lhs


def test_lhs_thm1_1_small_values():
    assert lhs_of("thm1_1_eq1_6", 2, 0) == ONE
    assert lhs_of("thm1_1_eq1_6", 2, 1) == Poly([1, 1])
    assert lhs_of("thm1_1_eq1_6", 2, 2) == Poly([1, 1]) * Poly([Fraction(3, 2), 2])
    assert lhs_of("thm1_1_eq1_7", 2, 2) == Poly([0, -half, Fraction(5, 2)])


def test_lhs_thm1_2_small_values():
    assert lhs_of("thm1_2_eq5_1a", 1, 2) == Poly([1, 1]) * Poly([1, 2])
    # eq5_1b with standard hooks reproduces the binomial closed form
    for n in range(5):
        assert lhs_of("thm1_2_eq5_1b", 2, n) == rhs_binomial_poly(2, n)


def test_lhs_thm1_2_supports_unary_trees():
    # arity 1: one path per size; hooks n, n-1, ..., 1.  m = 0 is below the
    # row's min_m, so the unvalidated summation is called directly.
    lhs, visited = identities._lhs("thm1_2_eq5_1a", 0, 2, frozenset())
    assert lhs == Poly([1, 1]) * Poly([half, 1]) and visited == 1


def test_lhs_thm1_2_is_invariant_in_s_of_fixed_size():
    for n in range(4):
        for family in ("thm1_2_eq5_1a", "thm1_2_eq5_1b"):
            assert lhs_of(family, 2, n, {1}) == lhs_of(family, 2, n, {2})


def test_lhs_forests_small_values():
    assert lhs_of("forest_1_3a", None, 1) == Poly([1, 1])
    assert lhs_of("forest_1_3a", None, 2) == Poly([1, 1]) * Poly([Fraction(3, 2), 2])
    assert lhs_of("forest_1_3b", None, 2) == Poly([0, -half, Fraction(5, 2)])


def test_forests_match_first_kind_via_bijection():
    # The forest rows sum first-kind hooks over binary trees; psi makes that the
    # sum of forest_hooks over the forests themselves, checked here exactly.
    for family in ("forest_1_3a", "forest_1_3b"):
        row = FAMILY_TABLE[family]
        # Neither row is scaled or numeric, so nothing is applied after the native sum.
        assert row.scale is None and len(row.factor(None, 0, 1)) == 3
        for n in range(9):
            table = identities._factor_table(row, None, 0, n)
            counts = Counter(tuple(sorted(forest_hooks(f))) for f in enumerate_forests(n))
            lhs, visited = identities._multiset_sum(counts, table), counts.total()
            report = check_identity(IdentitySpec(family, n=n))
            assert report.passed
            assert report.lhs == lhs and report.trees_visited == visited == count_trees(2, n)


def test_special_value_collapse_counts_trees():
    # both binomial-form families evaluate to the arity-m tree count at
    # x = 1; for eq1_7 every factor is 1 there, for eq5_1b the sum over the
    # larger arity-(m+1) universe collapses to the same closed-form value
    for m, n in [(2, 4), (3, 3), (4, 2)]:
        assert lhs_of("thm1_1_eq1_7", m, n)(1) == count_trees(m, n)
    for m, n in [(1, 4), (2, 3)]:
        assert lhs_of("thm1_2_eq5_1b", m, n)(1) == count_trees(m, n)


def test_postnikov_small():
    report = check_identity(IdentitySpec("postnikov", n=2))
    assert report.lhs == 3 and report.rhs == 3 and report.passed
    assert report.trees_visited == 2


def test_lascoux_eq_1_1():
    assert lhs_of("lascoux_1_1", None, 1) == X
    report = check_identity(IdentitySpec("lascoux_1_1", n=3))
    assert report.passed
    assert report.trees_visited == 5
    with pytest.raises(ValueError):
        check_identity(IdentitySpec("nope", n=2))


@pytest.mark.parametrize(
    "family,m,n",
    [
        ("duliu_1_2a", 1, 3),
        ("duliu_1_2b", 2, 3),
        ("forest_1_3a", None, 4),
        ("forest_1_3b", None, 4),
        ("thm1_1_eq1_6", 3, 3),
        ("thm1_1_eq1_7", 2, 4),
        ("thm1_2_eq5_1b", 2, 3),
    ],
)
def test_check_identity_families_pass(family, m, n):
    report = check_identity(IdentitySpec(family, m=m, n=n))
    assert report.passed
    assert report.lhs == report.rhs


def test_check_identity_thm1_2_all_subsets():
    for subset in all_position_subsets(2):
        report = check_identity(IdentitySpec("thm1_2_eq5_1a", m=2, n=3, S=subset))
        assert report.passed
        assert report.rhs == rhs_product_poly("thm1_2_eq51a", 2, 3, len(subset))


def test_corollary_spot_values():
    first = check_identity(IdentitySpec("cor1_first", m=2, n=2))
    assert first.lhs == Fraction(3, 2) and first.passed
    second = check_identity(IdentitySpec("cor1_second", m=2, n=2))
    assert second.lhs == Fraction(5, 2) and second.passed


def test_cor2_families_small():
    for subset in all_position_subsets(2):
        for n in range(4):
            assert check_identity(
                IdentitySpec("cor2_first", m=2, n=n, S=subset)
            ).passed
            assert check_identity(
                IdentitySpec("cor2_second", m=2, n=n, S=subset)
            ).passed


def test_cor2_third_matches_binomial_form():
    for n in range(5):
        report = check_identity(IdentitySpec("cor2_third", m=1, n=n))
        assert report.passed
        assert report.rhs == rhs_binomial_poly(1, n)
        assert report.spec.S == frozenset({1})


def test_spec_validation_errors():
    bad = [
        IdentitySpec("unknown", n=1),
        IdentitySpec("postnikov", n=0),
        IdentitySpec("postnikov", m=2, n=2),
        IdentitySpec("thm1_1_eq1_6", m=1, n=2),
        IdentitySpec("thm1_1_eq1_6", n=2),
        IdentitySpec("thm1_2_eq5_1a", m=2, n=2, S={3}),
        IdentitySpec("thm1_1_eq1_7", m=2, n=2, S={1}),
        IdentitySpec("cor2_third", m=2, n=2, S={1}),
        IdentitySpec("duliu_1_2a", m=0, n=2),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            check_identity(spec)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_row_drives_validation(family):
    row = FAMILY_TABLE[family]
    n = max(row.min_n, 2)
    if row.min_m is None:
        assert check_identity(IdentitySpec(family, n=n)).passed
        with pytest.raises(ValueError):
            check_identity(IdentitySpec(family, m=2, n=n))
    else:
        assert check_identity(IdentitySpec(family, m=row.min_m, n=n)).passed
        with pytest.raises(ValueError):
            check_identity(IdentitySpec(family, m=row.min_m - 1, n=n))
    if row.S == "none":
        with pytest.raises(ValueError):
            check_identity(IdentitySpec(family, m=row.min_m, n=n, S={1}))
    control = verify_suite([IdentitySpec(family, m=row.min_m, n=3)], _corrupt_rhs=True)
    assert control.failed == 1


def test_identity_spec_normalizes_s():
    spec = IdentitySpec("thm1_2_eq5_1a", m=2, n=1, S=[2, 1])
    assert spec.S == frozenset({1, 2})
    report = check_identity(IdentitySpec("thm1_2_eq5_1a", m=2, n=1))
    assert report.spec.S == frozenset()


def test_check_recurrence_small():
    report = check_recurrence_thm1_1(2, 1)
    assert report.lhs == X and report.rhs == X and report.passed
    for m, n in [(2, 4), (3, 3)]:
        assert check_recurrence_thm1_1(m, n).passed
    with pytest.raises(ValueError):
        check_recurrence_thm1_1(1, 2)


def test_check_gf_relations_small():
    order = 3
    for m, s in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        report = check_gf_relations(m, s, order)
        assert report.passed, (m, s)
        # The grown half is the paper's closed form for the eq5_1a sums.
        closed = tuple(rhs_product_poly("thm1_2_eq51a", m, n, s) for n in range(order + 1))
        assert report.rhs[: order + 1] == closed, (m, s)
    with pytest.raises(ValueError):
        check_gf_relations(2, 3, 3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_check_gf_relations_at_order_zero(m):
    # Order 0 is the smallest truncation: each half holds only the constant 1,
    # from one tree of each universe.  Order -1 is rejected.
    for s in range(m + 1):
        report = check_gf_relations(m, s, 0)
        assert (report.lhs, report.rhs) == ((ONE, ONE), (ONE, ONE)), (m, s)
        assert report.passed and report.trees_visited == 2, (m, s)
        with pytest.raises(ValueError):
            check_gf_relations(m, s, -1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_check_gf_relations_builds_each_key_level_once_at_s0(monkeypatch, m):
    # At s = 0 both series sum one universe, so they share its key levels.
    builds, real = Counter(), hooks._terms

    def terms(arity, pruned, k):
        builds[arity, pruned, k] += 1
        return real(arity, pruned, k)

    monkeypatch.setattr(hooks, "_terms", terms)
    order = 5
    assert check_gf_relations(m, 0, order).passed
    assert builds == Counter({(m + 1, frozenset(), k): 1 for k in range(1, order + 1)})


@pytest.mark.parametrize("universe", ["A", "B"])
def test_check_gf_relations_detects_a_corrupted_sum(monkeypatch, universe):
    # One enumerated coefficient (k = 3) off by 1.  In A, the S-universe series,
    # both halves fail; in B (arity m-s+1, S empty) only the composition does.
    order, lhs = 5, identities._lhs
    for m, s in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        target = (m, frozenset(range(1, s + 1))) if universe == "A" else (m - s, frozenset())

        def corrupted(family, m_, n, S, levels=None):
            total, visited = lhs(family, m_, n, S, levels)
            return (total + 1 if (m_, S) == target and n == 3 else total), visited

        monkeypatch.setattr(identities, "_lhs", corrupted)
        report = check_gf_relations(m, s, order)
        assert report.passed is False, (m, s)
        cut = order + 1  # the grown half ends here, the composed half starts
        grown_ok = report.lhs[:cut] == report.rhs[:cut]
        assert grown_ok is (universe == "B"), (m, s)
        assert report.lhs[cut:] != report.rhs[cut:], (m, s)


def test_ns_within_budget():
    assert ns_within_budget(2, 5) == [0, 1, 2, 3]
    assert ns_within_budget(2, 200_000)[-1] == 11
    assert ns_within_budget(3, 200_000)[-1] == 8


def test_ns_within_budget_rejects_unary_trees():
    # count_trees(1, n) is 1 for every n, so no cap would ever be exceeded
    with pytest.raises(ValueError):
        ns_within_budget(1, 10)
    with pytest.raises(ValueError):
        identities.grid_theorem1(ms=(1,))


def test_package_exports_resolve():
    import hooktrees

    assert [name for name in hooktrees.__all__ if not hasattr(hooktrees, name)] == []
    namespace = {}
    exec("from hooktrees import *", namespace)
    assert set(hooktrees.__all__) <= set(namespace)


def test_all_position_subsets():
    subsets = all_position_subsets(2)
    assert subsets == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_verify_suite_empty_grid():
    result = verify_suite([])
    assert result.total == 0 and result.all_passed


def test_verify_suite_reports_in_grid_order():
    grid = [
        IdentitySpec("thm1_1_eq1_7", m=2, n=n) for n in range(4)
    ]
    result = verify_suite(grid)
    assert [r.spec.n for r in result.reports] == [0, 1, 2, 3]
    assert result.all_passed and result.passed == 4


def test_verify_suite_negative_control():
    grid = [IdentitySpec("thm1_1_eq1_7", m=2, n=2)]
    result = verify_suite(grid, _corrupt_rhs=True)
    assert result.failed == 1
    assert not result.all_passed


def test_verify_suite_surfaces_invalid_specs():
    grid = [IdentitySpec("thm1_1_eq1_7", m=2, n=2), IdentitySpec("thm1_1_eq1_7", m=1, n=2)]
    result = verify_suite(grid)
    assert result.reports[0].passed
    assert not result.reports[1].passed
    assert result.reports[1].note


def test_verify_suite_turns_malformed_specs_into_failed_reports():
    good = IdentitySpec("duliu_1_2a", m=2, n=3)
    bad = [
        IdentitySpec("duliu_1_2a", m="2", n=3),
        IdentitySpec("duliu_1_2a", m=True, n=3),
        IdentitySpec("duliu_1_2a", m=2, n=3.0),
        IdentitySpec("thm1_2_eq5_1a", m=2, n=3, S={"1", 2}),
        IdentitySpec(["duliu_1_2a"], m=2, n=3),
    ]
    result = verify_suite([good, *bad, good])
    assert [r.passed for r in result.reports] == [True] + [False] * len(bad) + [True]
    assert all(r.note for r in result.reports[1:-1])


def test_verify_suite_turns_any_exception_into_a_failed_report(monkeypatch):
    def broken(m, n):
        raise RuntimeError("closed form unavailable")

    monkeypatch.setattr(identities, "rhs_binomial_poly", broken)
    grid = [
        IdentitySpec("lascoux_1_1", n=2),
        IdentitySpec("duliu_1_2b", m=1, n=3),
        IdentitySpec("thm1_1_eq1_7", m=2, n=3),
        IdentitySpec("thm1_1_eq1_6", m=2, n=3),
        IdentitySpec("forest_1_3b", n=3),
        IdentitySpec("forest_1_3a", n=3),
        IdentitySpec("duliu_1_2a", m=0, n=3),
    ]
    result = verify_suite(grid)
    assert [r.spec for r in result.reports] == grid
    assert [r.passed for r in result.reports] == [False, True, False, True, False, True, False]
    for i in (0, 2, 4):
        assert result.reports[i].note == "RuntimeError: closed form unavailable"
    assert result.reports[6].note == "duliu_1_2a needs m >= 1, got 0"


def test_verify_suite_names_a_non_integer_n_or_m_as_a_type_error():
    # A float or a bool is no integer, whatever its value.
    result = verify_suite([IdentitySpec("postnikov", n=2.0), IdentitySpec("thm1_1_eq1_6", m=True, n=2)])
    assert [(r.passed, r.note) for r in result.reports] == [
        (False, "postnikov needs an integer n, got 2.0"),
        (False, "thm1_1_eq1_6 needs an integer m, got True"),
    ]


def _old_s_rule(row, m, S) -> bool:
    """Whether S passed ``_validated`` before it called ``hooks._position_set``: integer
    positions (no bools), all of [1..m] for a full-set row, a subset of it otherwise."""
    if any(isinstance(p, bool) or not isinstance(p, int) for p in S or ()):
        return False
    full = frozenset(range(1, m + 1))
    return S is None or (S == full if row.S == "full" else S <= full)


S_FAMILIES = [family for family in FAMILIES if FAMILY_TABLE[family].S != "none"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(S_FAMILIES), st.integers(1, 4), st.data())
def test_position_set_validates_s_as_the_old_rule_did(family, m, data):
    row = FAMILY_TABLE[family]
    positions = st.sampled_from([*range(-1, m + 2), True, 1.0, "1"])
    S = data.draw(st.none() | st.lists(positions, max_size=m + 2).map(frozenset))
    spec = IdentitySpec(family, m=m, n=row.min_n, S=S)
    if not _old_s_rule(row, m, S):
        with pytest.raises(ValueError):
            identities._validated(spec)
        return
    valid = identities._validated(spec)
    if S is None:
        assert valid.S == (frozenset(range(1, m + 1)) if row.S == "full" else frozenset())
    else:
        assert valid.S is spec.S


def test_a_bad_position_is_named_the_same_under_every_hash_seed():
    # A set of strings iterates in an order that PYTHONHASHSEED picks.
    src = str(Path(identities.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from hooktrees.hooks import second_kind_hooks\n"
        "from hooktrees.identities import IdentitySpec, verify_suite\n"
        "from hooktrees.trees import decode\n"
        "try:\n"
        "    second_kind_hooks(decode('1000', 3), {'a', 'b', 'c'})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(verify_suite([IdentitySpec('thm1_2_eq5_1a', m=2, n=1, S={'a', 'b'})]).reports[0].note)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in "012"
    }
    assert outs == {"pruned position 'a' is not an integer in 1..2\n" * 2}


def test_verify_suite_caps_the_worker_pool(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(identities.os, "cpu_count", lambda: 4)
    grid = [IdentitySpec("thm1_1_eq1_7", m=2, n=n) for n in range(3)]
    assert verify_suite(grid, jobs=10_000).all_passed
    assert verify_suite(grid * 3, jobs=10_000).all_passed
    monkeypatch.setattr(identities.os, "cpu_count", lambda: None)
    assert verify_suite(grid, jobs=10_000).all_passed
    assert sizes == [3, 4]


def test_importing_the_package_skips_multiprocessing():
    # Only a pool run needs it; it would add to every start-up of the command line.
    src = str(Path(identities.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import hooktrees.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_verify_suite_parallel_matches_serial():
    grid = [
        IdentitySpec(family, m=2, n=n)
        for family in ("thm1_1_eq1_6", "thm1_1_eq1_7")
        for n in range(5)
    ]
    serial = verify_suite(grid, jobs=1)
    parallel = verify_suite(grid, jobs=2)
    assert [r.spec for r in serial.reports] == [r.spec for r in parallel.reports]
    assert [(r.lhs, r.rhs, r.passed) for r in serial.reports] == [
        (r.lhs, r.rhs, r.passed) for r in parallel.reports
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_suite_equals_per_spec_checks_on_a_shuffled_grid(jobs):
    # The suite runs its specs grouped by hook mode; the reports must still be
    # the per-spec ones, in grid order, invalid specs included.
    grid = grid_theorem1(100) + grid_theorem2(100) + grid_priors(100) + grid_corollaries()[::7]
    grid += [IdentitySpec("nope", n=1), IdentitySpec("thm1_1_eq1_6", m=1, n=2),
             IdentitySpec(["duliu_1_2a"], m=2, n=3), IdentitySpec("thm1_2_eq5_1a", m=2, n=3, S={"1", 2})]
    Random(jobs).shuffle(grid)
    alone = [identities._run_one(spec) for spec in grid]
    suite = verify_suite(grid, jobs=jobs).reports
    assert [replace(r, elapsed=0.0) for r in suite] == [replace(r, elapsed=0.0) for r in alone]


def test_verify_suite_validates_each_hook_mode_once(monkeypatch):
    # In any spec order, every first-kind walk of a suite uses one hook memo,
    # whatever its arity.  The standard and second kinds are counted by key:
    # each suite builds each key level 1..(largest n) of each of their modes
    # exactly once, and a second suite builds them all again.
    grid = grid_theorem1(500) + grid_theorem2(500)
    Random(3).shuffle(grid)
    largest = Counter()
    for spec in grid:
        row = FAMILY_TABLE[spec.family]
        if row.hooks != "first":
            mode = (row.arity(spec.m), spec.S or frozenset())
            largest[mode] = max(largest[mode], spec.n)
    memos, builds = {}, Counter()
    real_walk, real_terms = identities.first_kind_hooks, hooks._terms

    def walk(tree):
        values = real_walk(tree)
        memos[id(hooks._state[3])] = hooks._state[3]
        return values

    def terms(arity, pruned, k):
        builds[arity, pruned, k] += 1
        return real_terms(arity, pruned, k)

    monkeypatch.setattr(identities, "first_kind_hooks", walk)
    monkeypatch.setattr(hooks, "_terms", terms)
    for _ in range(2):
        memos.clear()
        builds.clear()
        monkeypatch.setattr(hooks, "_state", (0, hooks._NO_POSITIONS, False, {}))
        assert verify_suite(grid).all_passed
        assert len(memos) == 1
        assert builds == Counter({(*mode, k): 1 for mode, n in largest.items() for k in range(1, n + 1)})


def test_serial_verify_suite_checks_specs_in_grid_order(monkeypatch):
    # A shuffled grid of every hook kind runs spec by spec as given, not
    # grouped by mode or size.
    grid = grid_theorem1(100) + grid_theorem2(100) + grid_priors(100)
    Random(5).shuffle(grid)
    seen, real = [], identities.check_identity

    def check(spec, **kwargs):
        seen.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(identities, "check_identity", check)
    assert verify_suite(grid).all_passed
    assert seen == grid


@pytest.mark.parametrize("spec", [IdentitySpec("duliu_1_2a", m=1, n=16),
                                  IdentitySpec("thm1_2_eq5_1a", m=1, n=16, S={1})], ids=["standard", "second"])
def test_exhaustive_checks_past_enumeration(spec):
    # 35,357,670 binary trees, summed exactly by their counted hook multisets.
    report = check_identity(spec)
    assert report.passed
    assert report.trees_visited == count_trees(2, 16) == 35_357_670


def test_default_grid_is_well_formed():
    grid = default_grid()
    assert all(spec.family in FAMILIES for spec in grid)
    assert len(grid) == len(set(grid))


@pytest.mark.parametrize(
    "build, size, digest",
    [
        (grid_theorem1, 72, "066b64d26bf37d76"),
        (grid_theorem2, 228, "a1f02924ca2a791f"),
        (grid_priors, 91, "a3644a3ba6ca2538"),
        (grid_corollaries, 228, "3d930b4f20ce7bfa"),
        (lambda: grid_theorem1(5000) + grid_priors(5000) + grid_corollaries(), 369, "781adf98597be9cc"),
        (lambda: grid_theorem2(5000), 192, "75435abd90b113f5"),
        (lambda: grid_theorem1(100, ms=(2, 3)), 22, "4b594ab30c4a2151"),
    ],
    ids=["theorem1", "theorem2", "priors", "corollaries", "bench-mixed", "bench-second-kind",
         "theorem1-m23"],
)
def test_grid_specs_and_their_order_are_pinned(build, size, digest):
    # Reports come back in grid order, so the order of the specs is part of the output.
    rows = [(spec.family, spec.m, spec.n, None if spec.S is None else sorted(spec.S))
            for spec in build()]
    assert len(rows) == size
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


factors = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3).filter(bool)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3).filter(bool)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 4), (2, 4), (2, 5), (3, 4), (4, 3)]),
    st.sampled_from(["standard", "first", "second", "forest"]),
    st.data(),
)
def test_multiset_sums_equal_per_tree_sums(shape, kind, data):
    # Rows are (c1, c0, d) for (c1*x + c0)/d or (c0, d) for c0/d, mixed in one table;
    # zero factors make a product that is built from a shared prefix vanish exactly.
    arity, n_max = shape
    n = data.draw(st.integers(0, n_max))
    rows = [None] + data.draw(st.lists(factors, min_size=n, max_size=n))
    if kind == "forest":
        universe, values_of = (lambda: enumerate_forests(n)), forest_hooks
    else:
        universe = lambda: enumerate_trees(arity, n)
        S = frozenset(p for p in range(1, arity) if data.draw(st.booleans()))
        values_of = {
            "standard": standard_hooks,
            "first": first_kind_hooks,
            "second": lambda tree: second_kind_hooks(tree, S),
        }[kind]
    naive = [Fraction(0)] * (n + 1)
    for item in universe():
        term = [Fraction(1)]
        for h in values_of(item):
            c1, c0, d = rows[h] if len(rows[h]) == 3 else (0, *rows[h])
            term = [(lo * c0 + hi * c1) / d for lo, hi in zip(term + [0], [0] + term)]
        for k, c in enumerate(term):
            naive[k] += c
    table = [None] + [(d, c[::-1]) for *c, d in rows[1:]]
    counts = Counter(tuple(sorted(values_of(item))) for item in universe())
    total, visited = identities._multiset_sum(counts, table), counts.total()
    assert total == Poly(naive)
    assert visited == (count_trees(2, n) if kind == "forest" else count_trees(arity, n))


def test_multiset_sum_opens_no_python_call_per_multiset():
    # Each product is one math.prod over packed ints, so the Python frames the sum
    # step opens are per spec: n = 9 (489 multisets) opens exactly those of n = 7.
    code = identities._multiset_sum.__code__

    def traced(n):
        inside, calls = [False], []

        def profile(frame, event, arg):
            if frame.f_code is code and event in ("call", "return"):
                inside[0] = event == "call"
            elif inside[0] and event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            lhs, visited = identities._lhs("thm1_1_eq1_6", 2, n, None)
        finally:
            sys.setprofile(None)
        return lhs, visited, calls

    lhs, visited, calls = traced(9)
    assert lhs == rhs_product_poly("thm1_1_eq16", 2, 9)
    assert visited == 4862
    assert calls == traced(7)[2]


@pytest.mark.parametrize("k", [0, 1, 2, 31, 63, 64, 65, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_multiset_sum_decodes_a_coefficient_at_the_bound(k, sign):
    # One factor of l1 norm 2**k: the bound is 2**k itself, so the coefficient needs
    # every bit the kernel allots it, the sign bit included.
    total = identities._multiset_sum(Counter({(1,): 1}), [None, (1, [sign * 2**k])])
    assert total.pair == (1, (sign * 2**k,))


wide = st.integers(-10**6, 10**6)
wide_factors = st.one_of(
    st.tuples(wide, wide, wide.filter(bool)),
    st.tuples(wide, wide.filter(bool)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_multiset_sum_of_wide_tables_equals_a_fraction_sum(n, data):
    # Arbitrary multisets of one length n over wide mixed rows, negative d
    # included, with counts far past any universe's size.
    rows = [None] + data.draw(st.lists(wide_factors, min_size=n, max_size=n))
    keys = st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n).map(sorted).map(tuple)
    counts = Counter(data.draw(st.dictionaries(keys, st.integers(1, 10**30), max_size=8)))
    naive = [Fraction(0)] * (n + 1)
    for key, count in counts.items():
        term = [Fraction(count)]
        for h in key:
            c1, c0, d = rows[h] if len(rows[h]) == 3 else (0, *rows[h])
            term = [(lo * c0 + hi * c1) / d for lo, hi in zip(term + [0], [0] + term)]
        for i, c in enumerate(term):
            naive[i] += c
    table = [None] + [(d, c[::-1]) for *c, d in rows[1:]]
    assert identities._multiset_sum(counts, table) == Poly(naive)


def test_multiset_sum_rejects_keys_of_mixed_lengths():
    table = identities._factor_table(FAMILY_TABLE["thm1_1_eq1_6"], 2, 0, 2)
    with pytest.raises(ValueError, match="mixed lengths"):
        identities._multiset_sum(Counter({(1,): 1, (1, 2): 1}), table)


def test_zero_sum_renders_zero():
    # cor2_first at m = 2, S = {1,2} sums to exactly 0 for n >= 1.
    for n in range(1, 5):
        report = check_identity(IdentitySpec("cor2_first", m=2, n=n, S={1, 2}))
        assert report.passed and coefficient_strings(report.lhs) == ["0"]
