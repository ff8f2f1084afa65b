"""perfbench's traced work counts against what the ground plans hold.

perfbench/layers.py counts a predicate call's rows as the length of its
first argument, and the hidden cache as the hidden_features calls made
while a plan is built. Both hold only while a plan's batches keep the rows
their models read (model.lift), one row per live atom, and an RWFN lift is
its one hidden_features call.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from rwfn import training  # noqa: E402
from rwfn.predicates import NtnPredicate, RwfnPredicate  # noqa: E402

TINY = {
    "types": replace(workloads.WORKLOADS["types"], scenes=30, epochs=3, budget=50),
    "partof": replace(workloads.WORKLOADS["partof-hard"], scenes=20, epochs=3, budget=100),
}


def atoms(plan, key: str) -> int:
    """The plan's learnable atoms (key "atoms") or live atoms ("live_atoms")."""
    parts = plan.gt.parts or [plan.gt]
    return sum(n for i, part in enumerate(parts) for pred, n in plan.part_stats(i)[key].items()
               if pred in part.learnable_predicates())


@pytest.mark.parametrize("task", sorted(TINY))
def test_traced_counts_follow_the_plans(monkeypatch, task):
    w = TINY[task]
    plans = []
    build = training.GroundPlan

    def recorded(*args, **kwargs):
        plans.append(build(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(training, "GroundPlan", recorded)
    probe = layers.Probe()
    with layers.instrumented(probe):
        it = workloads.run_iteration(w, 3, probe.tracer)
    assert [f.problem for f in it.fits] == [None] * len(w.models)
    metrics = probe.layer_metrics()
    for kind, cls in (("ltn", NtnPredicate), ("rwfn", RwfnPredicate)):
        mine = [p for p in plans if isinstance(p.batches[0].model, cls)]
        assert mine
        rows = 0
        for p in mine:
            assert all(len(b.x) == len(b.indices) for b in p.batches)
            assert sum(b.indices.size for b in p.batches) == atoms(p, "live_atoms")
            if task == "partof":
                assert atoms(p, "live_atoms") < atoms(p, "atoms")
            rows += sum(len(b.indices) for b in p.batches)
        # each plan's epoch makes one forward and one gradient call per batch
        assert metrics[f"predicates.rows_per_epoch.{kind}"] == 2 * rows / len(mine)
        if cls is RwfnPredicate:
            assert metrics["encoder.cache_bytes"] == sum(p.stats()["cache_bytes"] for p in mine)
