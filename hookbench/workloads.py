"""The workloads of the hooktrees benchmark, their correctness gate and their trace targets.

Each workload draws the order of its items from the run's seed; the
program only ever sees the permuted list.  A pass renders its verdicts to
json.  The gate re-sorts the rows into canonical order, hashes them, and
compares the hash with the digest recorded at the seed commit, so the
digest does not depend on the seed.  Every genuine check must pass and
every negative control must fail.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import hooktrees
from hooktrees import cli, identities
from hooktrees.algebra import PolySeries
from hooktrees.identities import (
    IdentitySpec,
    grid_corollaries,
    grid_priors,
    grid_theorem1,
    grid_theorem2,
)

from . import tracing

HOOK_FUNCTIONS = ("standard_hooks", "first_kind_hooks", "second_kind_hooks", "forest_hooks")
SERIES_FUNCTIONS = ("solve_omega", "solve_phi", "closed_omega", "closed_phi", "series_compose_scaled")


@dataclass
class Pass:
    """One timed pass: wall seconds and the json it rendered."""

    wall: float
    text: str


def canonical_digest(text: str) -> str:
    """sha256 of a json report whose rows are re-sorted into canonical order."""
    rows = json.loads(text)
    rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
    return hashlib.sha256((json.dumps(rows, indent=2) + "\n").encode()).hexdigest()


def failed_checks(text: str, expected: int, want_pass: bool, golden: str | None) -> int:
    """Checks of one pass whose verdict differs from the known answer.

    A pass with the wrong number of rows, or whose canonical digest is not
    ``golden``, fails as a whole.
    """
    rows = json.loads(text)
    if len(rows) != expected or (golden is not None and canonical_digest(text) != golden):
        return expected
    return sum(1 for row in rows if row["pass"] is not want_pass)


class Workload:
    """Items built in canonical order; ``permute`` is the only order the program sees."""

    def build(self) -> list:
        raise NotImplementedError

    def permute(self, rng) -> list:
        items = self.build()
        rng.shuffle(items)
        return items


class GridWorkload(Workload):
    """An identity grid run serially through ``verify_suite`` and rendered by ``render_reports``."""

    def __init__(self, build: Callable[[], list], largest: IdentitySpec, golden: str):
        self.build = build
        self.largest = largest
        self.golden = golden

    def run_pass(self, specs: list) -> Pass:
        start = perf_counter()
        result = identities.verify_suite(specs)
        text = cli.render_reports(result.reports, "json")
        return Pass(perf_counter() - start, text)

    def control(self) -> list:
        """The negative-control slice: one n = 3 spec per (family, m, |S|)."""
        picked: dict = {}
        for spec in self.build():
            key = (spec.family, spec.m, len(spec.S or ()))
            if spec.n == 3 and key not in picked:
                picked[key] = spec
        return list(picked.values())

    def run_control(self, specs: list) -> str:
        result = identities.verify_suite(specs, _corrupt_rhs=True)
        return cli.render_reports(result.reports, "json")

    def run_largest(self) -> tuple[float, str, int]:
        """Seconds, json and trees of the largest single check, run alone."""
        start = perf_counter()
        report = identities.check_identity(self.largest)
        elapsed = perf_counter() - start
        return elapsed, cli.render_reports([report], "json"), report.trees_visited


def series_check(a: int, b: int, s: int, order: int, corrupt: bool = False) -> dict:
    """Solve both series for one (a, b, s) and check them against the closed forms.

    The row passes when every coefficient of ``solve_omega`` and
    ``solve_phi`` equals its closed form and phi is the fixed point
    omega(t * phi^s).  ``corrupt`` shifts the closed forms by +1, for the
    negative controls.
    """
    shift = 1 if corrupt else 0
    omega = hooktrees.solve_omega(a, b, order)
    phi = hooktrees.solve_phi(a, b, s, order)
    ok = (
        all(omega.coeffs[n] == hooktrees.closed_omega(a, b, n) + shift for n in range(1, order + 1))
        and all(phi.coeffs[n] == hooktrees.closed_phi(a, b, s, n) + shift for n in range(1, order + 1))
        and hooktrees.series_compose_scaled(omega, phi, s) == phi
    )
    return {
        "a": a,
        "b": b,
        "s": s,
        "omega": [cli.coefficient_strings(c) for c in omega.coeffs],
        "phi": [cli.coefficient_strings(c) for c in phi.coeffs],
        "pass": ok,
    }


class SeriesWorkload(Workload):
    """``solve_omega``/``solve_phi`` over an (a, b, s) grid to a fixed order; nothing is enumerated."""

    def __init__(self, ranges: tuple, order: int, largest: tuple, golden: str):
        self.ranges = ranges
        self.order = order
        self.largest = largest
        self.golden = golden

    def build(self) -> list:
        a_range, b_range, s_range = self.ranges
        return [(a, b, s) for a in a_range for b in b_range for s in s_range]

    def _render(self, triples: list, corrupt: bool) -> str:
        rows = [series_check(a, b, s, self.order, corrupt) for a, b, s in triples]
        return json.dumps(rows, indent=2) + "\n"

    def run_pass(self, triples: list) -> Pass:
        start = perf_counter()
        text = self._render(triples, False)
        return Pass(perf_counter() - start, text)

    def control(self) -> list:
        """The negative-control slice: the corner triples of the grid."""
        a_range, b_range, s_range = self.ranges
        return [(a, b, s) for a in (a_range[0], a_range[-1]) for b in (b_range[0], b_range[-1])
                for s in (s_range[0], s_range[-1])]

    def run_control(self, triples: list) -> str:
        return self._render(triples, True)

    def run_largest(self) -> tuple[float, str, int]:
        """Seconds and json of the heaviest triple, solved and checked alone; no trees."""
        start = perf_counter()
        text = self._render([self.largest], False)
        return perf_counter() - start, text, 0


WORKLOADS = {
    "mixed_grid": GridWorkload(
        lambda: grid_theorem1(5_000) + grid_priors(5_000) + grid_corollaries(),
        largest=IdentitySpec("thm1_1_eq1_6", m=2, n=9),
        golden="e5f9e0720126c42a8b2c5c3823851273e06cf7d100a4a1c377c6775ac74f6f83",
    ),
    "second_kind_all_S": GridWorkload(
        lambda: grid_theorem2(5_000),
        largest=IdentitySpec("thm1_2_eq5_1a", m=1, n=9, S=frozenset({1})),
        golden="01d2588068643277761f86a3852a602606a6bdc714994645fe504bfd38acae83",
    ),
    "series_fixed_point": SeriesWorkload(
        ((1, 2, 3), (1, 2, 3), (0, 1, 2, 3)),
        order=8,
        largest=(3, 3, 3),
        golden="ab625c307557eda64aa02ed3849d7d63b99c5101cf60cfc2d633fbb2a739043b",
    ),
}


def spec_id(spec: IdentitySpec) -> str:
    s_text = ",".join(map(str, sorted(spec.S))) if spec.S is not None else "-"
    return f"{spec.family} m={spec.m} n={spec.n} S={s_text}"


def trace_targets() -> list[tracing.Target]:
    """The names ``hooktrees.identities`` and ``hooktrees.cli`` call, the series API, and ``series_check``."""
    return [
        tracing.Target(identities, "enumerate_trees", "trees", iterates=True),
        tracing.Target(identities, "enumerate_forests", "trees", iterates=True),
        *(tracing.Target(identities, fn, "hooks", measure=len) for fn in HOOK_FUNCTIONS),
        tracing.Target(identities, "rhs_binomial_poly", "algebra"),
        tracing.Target(identities, "rhs_product_poly", "algebra"),
        tracing.Target(identities, "check_identity", "identities", spec_of=lambda args: spec_id(args[0])),
        tracing.Target(cli, "render_reports", "cli", measure=len),
        tracing.Target(PolySeries, "__mul__", "algebra", name="PolySeries.__mul__"),
        tracing.Target(PolySeries, "__pow__", "algebra", name="PolySeries.__pow__"),
        *(tracing.Target(hooktrees, fn, "algebra") for fn in SERIES_FUNCTIONS),
        tracing.Target(
            sys.modules[__name__], "series_check", "bench",
            spec_of=lambda args: "series a={} b={} s={}".format(*args[:3]),
        ),
    ]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    own = tracing.self_times(spans)

    def total(field: str, *names: str) -> float:
        return sum(span[field] for span in spans if span["name"] in names)

    enumerations = [span for span in spans if span["layer"] == "trees"]
    yielded = sum(span["count"] for span in enumerations)
    universes: dict = {}
    for span in enumerations:
        key = (span["name"], span["detail"])
        universes[key] = max(universes.get(key, 0), span["count"])

    metrics = {
        "trees.enumerate_s": sum(span["busy"] for span in enumerations),
        "trees.yielded": yielded,
        "trees.distinct_share": sum(universes.values()) / yielded if yielded else 0.0,
    }
    for fn in HOOK_FUNCTIONS:
        metrics[f"hooks.{fn}_s"] = total("busy", fn)
        metrics[f"hooks.{fn}_calls"] = total("calls", fn)
    metrics["hooks.vertices"] = total("count", *HOOK_FUNCTIONS)
    metrics["identities.check_s"] = total("busy", "check_identity")
    metrics["identities.checks"] = total("calls", "check_identity")
    metrics["algebra.solve_s"] = total("busy", "solve_omega", "solve_phi")
    metrics["algebra.compose_s"] = total("busy", "series_compose_scaled")
    metrics["algebra.closed_s"] = total("busy", "closed_omega", "closed_phi")
    metrics["algebra.rhs_s"] = total("busy", "rhs_binomial_poly", "rhs_product_poly")
    metrics["algebra.series_mul"] = total("calls", "PolySeries.__mul__")
    metrics["algebra.series_pow"] = total("calls", "PolySeries.__pow__")
    metrics["cli.render_s"] = total("busy", "render_reports")
    metrics["cli.json_bytes"] = total("count", "render_reports")
    for layer in ("bench", "identities", "algebra"):
        metrics[f"{layer}.self_s"] = sum(own[span["id"]] for span in spans if span["layer"] == layer)
    return metrics
