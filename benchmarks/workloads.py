"""Seeded workload generator for the spintensor benchmark.

Each workload is a fixed-size pool of operations, every one a
`spintensor.cli.run(subcommand, spec, seed=...)` call on a spec dict
drawn from the workload seed.  The program sees only the generated
spec; the seed never reaches it except as the covariance `seed`
argument that the CLI exposes as `--seed`.

Why these three workloads:

- deformed-all: the worst known case.  `all` on a seeded deformation
  of Minkowski space spends nearly all of its time in finite-difference
  fallbacks over composed deformed fields (tens of thousands of `expm`
  calls per report) and almost none in expression evaluation.
- tetrad-grid: `concordance` on the ortho-tetrad scenario at ~100
  points, no deformation and no `expm`.  Per-point expression,
  Lie-derivative and einsum cost dominates; deformation fixes should
  leave it unchanged.
- covariance-sweep: `covariance` rotating over flat, diag-scale and
  ortho-tetrad.  A seeded transition on top of analytic base fields,
  with connection builds repeated across seed offsets, so reuse and
  hoisting gains show here and not on tetrad-grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

CONCORDANCE_CHECKS = frozenset(
    [f"chiral-{name}" for name in (
        "nabla-metric", "nabla-spin-metric", "nabla-conjugate-spin-metric",
        "nabla-mixed-symbols", "metric-trace", "symbol-sandwich",
    )]
    + [f"dirac-{name}" for name in (
        "nabla-metric", "nabla-spin-metric", "nabla-conjugate-spin-metric",
        "nabla-gamma-symbols", "nabla-chirality", "nabla-pairing",
        "chirality-involution-derivative",
    )]
)
COVARIANCE_CHECKS = frozenset(["chiral-transformation-law", "dirac-chiral-restriction"])
IDENTITY_SUITE_CHECKS = frozenset(["dirac-chirality-split-suite", "dirac-chiral-embedding-suite"])

# Checks judged against a spec tolerance; identity suites and the
# *-tangent-oracle comparison are excluded from the headroom metric.
SPEC_TOLERANCE_CHECKS = CONCORDANCE_CHECKS | COVARIANCE_CHECKS

WORKLOAD_NAMES = ("deformed-all", "tetrad-grid", "covariance-sweep")

COVARIANCE_BASES = ("flat", "diag-scale", "ortho-tetrad")


@dataclass(frozen=True)
class Operation:
    """One report: the arguments of one `cli.run` call."""

    subcommand: str
    spec: dict
    seed: int | None = None

    @property
    def work_units(self):
        """Sample points times modes carried through the report."""
        modes = 2 if self.spec.get("mode", "both") == "both" else 1
        return len(self.spec["sample_points"]) * modes


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    expected_checks: frozenset


def bundled_spec(name):
    """Bundled scenario spec as a plain dict (a fresh copy)."""
    target = resources.files("spintensor") / "scenarios" / f"{name}.json"
    return json.loads(target.read_text(encoding="utf-8"))


def _points(rng, count):
    # Every coordinate in [-0.5, 0.5]; x0 >= -0.5 keeps 1 + x0 >= 0.5,
    # away from the coordinate singularity of the diag-scale metric.
    return np.round(rng.uniform(-0.5, 0.5, size=(count, 4)), 6).tolist()


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _deformed_all(rng, k):
    spec = bundled_spec("seeded-deformation")
    spec["name"] = f"deformed-all-{k}"
    spec["seed"] = _seed(rng)
    spec["deform"] = {"seed": _seed(rng), "scale": 0.15}
    spec["sample_points"] = _points(rng, 5)
    return Operation("all", spec)


def _tetrad_grid(rng, k):
    spec = bundled_spec("ortho-tetrad")
    spec["name"] = f"tetrad-grid-{k}"
    spec["sample_points"] = _points(rng, 100)
    return Operation("concordance", spec)


def _covariance_sweep(rng, k):
    spec = bundled_spec(COVARIANCE_BASES[k % len(COVARIANCE_BASES)])
    spec["name"] = f"covariance-sweep-{k}"
    spec["sample_points"] = _points(rng, 5)
    return Operation("covariance", spec, seed=_seed(rng))


# name -> (operation factory, pool size, expected check names).  Pool
# sizes keep one full pass over the pool well inside one run.
_FACTORIES = {
    "deformed-all": (
        _deformed_all, 5,
        CONCORDANCE_CHECKS | COVARIANCE_CHECKS | IDENTITY_SUITE_CHECKS,
    ),
    "tetrad-grid": (_tetrad_grid, 6, CONCORDANCE_CHECKS),
    "covariance-sweep": (_covariance_sweep, 9, COVARIANCE_CHECKS),
}


def make_workload(name, seed) -> Workload:
    """The operation pool of a workload; the same seed gives the same pool."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOAD_NAMES)}")
    factory, size, expected = _FACTORIES[name]
    ops = tuple(
        factory(np.random.default_rng([int(seed), k]), k) for k in range(size)
    )
    return Workload(name, ops, expected)
