"""Self-tests of the benchmark's own arithmetic: span self times, the
quantifier counts, speed normalization, and BENCHMARK.json agreeing with
the code.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from rwfn.logic import parse_kb  # noqa: E402
from spans import Tracer, has_ancestor, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ["root", 0.0, 10.0, None, ""],
        ["a", 1.0, 4.0, 0, ""],
        ["a.child", 2.0, 3.0, 1, ""],
        ["b", 3.5, 6.0, 0, ""],   # overlaps a: root loses [1, 6] once
        ["c", 9.0, 12.0, 0, ""],  # ends after root: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_nested_tracer_self_times_add_up_to_the_root():
    t = Tracer()
    with t.span("root"):
        for _ in range(3):
            with t.span("mid"):
                with t.span("leaf"):
                    sum(range(1000))
    assert [s[3] for s in t.spans] == [None, 0, 1, 0, 3, 0, 5]
    root = t.spans[0]
    assert sum(self_times(t.spans)) == pytest.approx(root[2] - root[1])
    assert all(x >= 0 for x in self_times(t.spans))
    assert has_ancestor(t.spans, 2, "root")
    assert not has_ancestor(t.spans, 2, "root", stop="mid")


def test_quantifier_counts_follow_the_budget_rule():
    kb = parse_kb("pred P/1\npred R/2\n"
                  "forall x: P(x)\n"
                  "forall x,y: R(x,y) -> ~R(y,x)\n"
                  "forall x: exists y: R(x,y)\n"
                  "P(a)\n")
    # domain 10, budget 50: 10 exhaustive, 100 > 50 sampled, nested 10 x 10
    assert layers.quantifier_counts(kb.formulas, 10, 50) == [
        (10, False), (50, True), (10, False), (100, False)]


def test_speed_is_the_mean_of_the_samples_taken_in_the_interval():
    g = speed.SpeedGauge()
    g.starts, g.speeds = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 1.0]
    assert g.speed(0.5, 2.5) == pytest.approx(0.5)
    assert g.normalized(0.0, 4.0) == pytest.approx(4.0 * 0.75)
    # shorter than the sampling period: the next sample, or the last one
    assert g.speed(3.2, 3.3) == 1.0
    assert g.speed(0.2, 0.3) == 0.5


def test_gauge_samples_in_the_background_and_stops():
    with speed.SpeedGauge() as g:
        while len(g.speeds) < 3:
            speed.time.sleep(speed.PERIOD)
    assert not g._thread.is_alive()
    assert all(x > 0 for x in g.speeds)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(layers)
