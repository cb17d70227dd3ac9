"""Tests of the benchmark's own code: the trace wrappers, the layer metrics and the gate."""

import math
from dataclasses import replace
from fractions import Fraction
from random import Random

from hooktrees import cli, identities
from hooktrees.algebra import Poly
from hooktrees.identities import grid_theorem1

from hookbench import reference, tracing, workloads


def _bindings(targets):
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]


def _traced_pass(workload):
    tracer = tracing.Tracer(workloads.trace_targets())
    with tracer.installed(), tracer.span("bench", "pass"):
        one = workload.run_pass(workload.build())
    return one, tracer.take()


def test_wrappers_restore_the_original_names():
    targets = workloads.trace_targets()
    before = _bindings(targets)
    tracer = tracing.Tracer(targets)
    try:
        with tracer.installed():
            for owner, attr, original in before:
                assert owner.__dict__[attr] is not original
            raise KeyError("leave the block early")
    except KeyError:
        pass
    for (owner, attr, original), (_, _, now) in zip(before, _bindings(targets)):
        assert now is original, f"{attr} not restored"


def test_distinct_share_is_half_on_a_first_kind_grid():
    workload = workloads.GridWorkload(lambda: grid_theorem1(100, ms=(2, 3)), largest=None, golden="")
    one, spans = _traced_pass(workload)
    metrics = workloads.layer_metrics(spans)
    assert metrics["trees.distinct_share"] == 0.5
    assert metrics["identities.checks"] == len(workload.build())
    assert metrics["hooks.first_kind_hooks_calls"] == metrics["trees.yielded"]
    assert metrics["cli.json_bytes"] == len(one.text)
    assert tracing.self_time_error(spans, one.wall) < 1e-3


def test_self_time_check_catches_bad_spans():
    workload = workloads.WORKLOADS["series_fixed_point"]
    one, spans = _traced_pass(workload)
    assert tracing.self_time_error(spans, one.wall) < 1e-3
    assert tracing.self_time_error(spans, one.wall * 0.9) > 1e-3  # clocks disagree
    child = next(span for span in spans if span["parent"] is not None and span["busy"] > 2e-3)
    orphaned = [dict(span, parent=-1) if span is child else span for span in spans]
    assert tracing.self_time_error(orphaned, one.wall) > 1e-3
    parent = next(span for span in spans if span["id"] == child["parent"])
    outlasted = [dict(span, busy=0.0) if span is parent else span for span in spans]
    assert tracing.self_time_error(outlasted, one.wall) > 1e-3


def test_gate_fails_on_one_altered_coefficient():
    specs = grid_theorem1(50, ms=(2,))
    reports = list(identities.verify_suite(specs).reports)
    text = cli.render_reports(reports, "json")
    golden = workloads.canonical_digest(text)
    assert workloads.failed_checks(text, len(specs), True, golden) == 0
    assert workloads.canonical_digest(cli.render_reports(reports[::-1], "json")) == golden

    victim = reports[-1]
    coeffs = list(victim.lhs.coeffs)
    coeffs[0] += 1
    reports[-1] = replace(victim, lhs=Poly(coeffs))
    altered = cli.render_reports(reports, "json")
    assert workloads.failed_checks(altered, len(specs), True, golden) == len(specs)


def test_negative_controls_fail_in_full():
    for workload in workloads.WORKLOADS.values():
        controls = workload.control()[:4]
        text = workload.run_control(controls)
        assert workloads.failed_checks(text, len(controls), False, None) == 0


def test_workload_inputs_are_seeded_permutations():
    for workload in workloads.WORKLOADS.values():
        items = workload.build()
        assert workload.largest in items
        assert set(workload.control()) <= set(items)
        permuted = workload.permute(Random(7))
        assert permuted == workload.permute(Random(7))
        assert sorted(map(repr, permuted)) == sorted(map(repr, items))


def test_reference_kernel_computes_the_postnikov_sum():
    n = 8
    assert reference._kernel() == Fraction((n + 1) ** (n - 1) * 2**n, math.factorial(n))
    gauge = reference.SpeedGauge()
    assert 0 < gauge.scale() < 1e3
    assert len(gauge.samples) == 2
