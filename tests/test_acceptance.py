"""Acceptance suite: one test per criterion, one pass/fail line each.

Every comparison is exact (zero tolerance); the runtime bounds are the
stated budgets, which the measured times undercut by an order of
magnitude.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from fractions import Fraction
from time import perf_counter

from hooktrees.algebra import (
    closed_omega,
    closed_phi,
    series_compose_scaled,
    solve_omega,
    solve_phi,
)
from hooktrees.cli import render_reports
from hooktrees.hooks import compose, decompose, first_kind_hooks, forest_hooks
from hooktrees.identities import (
    IdentitySpec,
    all_position_subsets,
    check_gf_relations,
    check_identity,
    check_recurrence_thm1_1,
    grid_corollaries,
    grid_priors,
    grid_theorem1,
    grid_theorem2,
    ns_within_budget,
    verify_suite,
)
from hooktrees.trees import (
    count_trees,
    decode,
    enumerate_forests,
    enumerate_trees,
    psi,
    psi_inverse,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_theorem_1_grid():
    start = perf_counter()
    result = verify_suite(grid_theorem1())
    elapsed = perf_counter() - start
    visited = sum(r.trees_visited for r in result.reports)
    ok = result.all_passed and elapsed < 120
    _report(
        "1 (first-kind identities, m in 2..5, universes up to 200k)",
        ok,
        f"{result.passed}/{result.total} exact, {visited} trees, {elapsed:.1f}s",
    )
    assert result.all_passed
    assert elapsed < 120


def test_criterion_2_theorem_2_grid():
    start = perf_counter()
    result = verify_suite(grid_theorem2())
    by_size: dict[tuple, set] = {}
    for report in result.reports:
        key = (report.spec.family, report.spec.m, report.spec.n, len(report.spec.S))
        by_size.setdefault(key, set()).add(report.lhs)
    s_invariant = all(len(values) == 1 for values in by_size.values())
    elapsed = perf_counter() - start
    visited = sum(r.trees_visited for r in result.reports)
    ok = result.all_passed and s_invariant and elapsed < 180
    _report(
        "2 (second-kind identities, m in 1..3, every S, universes up to 50k)",
        ok,
        f"{result.passed}/{result.total} exact, S-invariance={s_invariant}, "
        f"{visited} trees, {elapsed:.1f}s",
    )
    assert result.all_passed
    assert s_invariant
    assert elapsed < 180


def test_criterion_3_prior_identities():
    start = perf_counter()
    result = verify_suite(grid_priors())
    elapsed = perf_counter() - start
    postnikov_n2 = next(
        r for r in result.reports if r.spec.family == "postnikov" and r.spec.n == 2
    )
    spot = postnikov_n2.lhs == 3 and postnikov_n2.rhs == 3
    ok = result.all_passed and spot and elapsed < 60
    _report(
        "3 (priors: numeric, binomial, standard-hook, forest families)",
        ok,
        f"{result.passed}/{result.total} exact, {elapsed:.1f}s",
    )
    assert result.all_passed
    assert spot
    assert elapsed < 60


def test_criterion_4_corollaries():
    start = perf_counter()
    result = verify_suite(grid_corollaries())
    elapsed = perf_counter() - start
    spot_first = check_identity(IdentitySpec("cor1_first", m=2, n=2))
    spot_second = check_identity(IdentitySpec("cor1_second", m=2, n=2))
    spots = spot_first.lhs == Fraction(3, 2) and spot_second.lhs == Fraction(5, 2)
    ok = result.all_passed and spots
    _report(
        "4 (special-value corollaries incl. rational binomial points)",
        ok,
        f"{result.passed}/{result.total} exact, spot values 3/2 and 5/2, {elapsed:.1f}s",
    )
    assert result.all_passed
    assert spots


def test_criterion_5_series_solvers():
    start = perf_counter()
    omega_ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            series = solve_omega(a, b, 10)
            for n in range(1, 11):
                omega_ok &= series.coeffs[n] == closed_omega(a, b, n)
    phi_ok = True
    fixed_ok = True
    for a in range(1, 4):
        for b in range(1, 4):
            omega = solve_omega(a, b, 8)
            for s in range(0, 4):
                phi = solve_phi(a, b, s, 8)
                for n in range(1, 9):
                    phi_ok &= phi.coeffs[n] == closed_phi(a, b, s, n)
                fixed_ok &= series_compose_scaled(omega, phi, s) == phi
    elapsed = perf_counter() - start
    ok = omega_ok and phi_ok and fixed_ok and elapsed < 30
    _report(
        "5 (series recurrences vs closed forms, fixed point to order 8)",
        ok,
        f"omega={omega_ok}, phi={phi_ok}, fixed-point={fixed_ok}, {elapsed:.1f}s",
    )
    assert omega_ok and phi_ok and fixed_ok
    assert elapsed < 30


def test_criterion_6_structural_properties():
    start = perf_counter()

    bijection_ok = True
    hooks_ok = True
    for n in range(9):
        for forest in enumerate_forests(n):
            image = psi(forest)
            bijection_ok &= psi_inverse(image) == forest
            hooks_ok &= forest_hooks(forest) == first_kind_hooks(image)
        for tree in enumerate_trees(2, n):
            bijection_ok &= psi(psi_inverse(tree)) == tree

    decompose_ok = True
    for arity in (2, 3, 4):
        subsets = all_position_subsets(arity - 1)
        for n in range(1, 5):
            for tree in enumerate_trees(arity, n):
                for positions in subsets:
                    skeleton, forest = decompose(tree, positions)
                    pieces = skeleton.internal_count() + sum(
                        p.internal_count() for p in forest
                    )
                    decompose_ok &= pieces == n
                    decompose_ok &= compose(skeleton, forest, positions) == tree

    codec_ok = True
    pairs: dict[int, set[int]] = {}
    for m in (2, 3, 4, 5):
        pairs[m] = set(ns_within_budget(m, 200_000))
    for m in (1, 2, 3):
        pairs.setdefault(m + 1, set()).update(ns_within_budget(m + 1, 50_000))
    total = 0
    for arity in sorted(pairs):
        for n in sorted(pairs[arity]):
            streamed = 0
            for tree in enumerate_trees(arity, n):
                codec_ok &= decode(tree.encode(), arity) == tree
                streamed += 1
            codec_ok &= streamed == count_trees(arity, n)
            total += streamed

    elapsed = perf_counter() - start
    ok = bijection_ok and hooks_ok and decompose_ok and codec_ok
    _report(
        "6 (bijection round-trips, per-vertex hooks under psi, decompose/compose, codec)",
        ok,
        f"psi={bijection_ok}, hooks={hooks_ok}, decompose={decompose_ok}, "
        f"codec over {total} trees={codec_ok}, {elapsed:.1f}s",
    )
    assert bijection_ok
    assert hooks_ok
    assert decompose_ok
    assert codec_ok


def test_criterion_7_proof_level_checks():
    start = perf_counter()
    recurrence_ok = all(
        check_recurrence_thm1_1(m, n).passed for m in (2, 3) for n in range(1, 7)
    )
    gf_ok = all(
        check_gf_relations(m, s, 5).passed for m in (1, 2, 3) for s in range(0, m + 1)
    )
    elapsed = perf_counter() - start
    ok = recurrence_ok and gf_ok
    _report(
        "7 (convolution recurrence and generating-series relations)",
        ok,
        f"recurrence={recurrence_ok}, series-relations={gf_ok}, {elapsed:.1f}s",
    )
    assert recurrence_ok
    assert gf_ok


def test_criterion_8_parallel_determinism():
    start = perf_counter()
    grid = grid_theorem1()
    serial = verify_suite(grid, jobs=1)
    parallel = verify_suite(grid, jobs=2)
    serial_json = render_reports(serial.reports, "json")
    parallel_json = render_reports(parallel.reports, "json")
    elapsed = perf_counter() - start
    ok = serial.all_passed and parallel.all_passed and serial_json == parallel_json
    _report(
        "8 (byte-identical json reports with and without parallelism)",
        ok,
        f"{len(serial_json)} bytes each, identical={serial_json == parallel_json}, "
        f"{elapsed:.1f}s",
    )
    assert serial.all_passed and parallel.all_passed
    assert serial_json == parallel_json
