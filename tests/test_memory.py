"""The memory peak of building an RWFN part-of ground plan.

The hidden cache is the plan's one large array. While it is built, the plan
holds besides it only what the bound below names: the frozen encoder's
per-slot tables of one branch, the Fourier pass's cos/sin strip tables, the
row-block temporaries, and the arrays the plan keeps. The grounding's own
intermediates (occurrence arrays, label lookups, argument codes) are freed
before the lift starts.
"""

import tracemalloc

from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.encoder import SLOT_BLOCK_ROWS, SLOT_STRIP_COLS
from rwfn.logic import GroundPlan
from rwfn.numerics import make_rng
from rwfn.tasks import build_partof_theory, make_rwfn_classifier

MiB = 2 ** 20


def test_partof_plan_peak_is_the_cache_plus_one_branch():
    b, budget = 400, 2000
    ds = gen_synthetic(SyntheticConfig(num_scenes=40, num_whole_classes=6, feature_noise=0.35, seed=3))
    gt = build_partof_theory(ds, make_rwfn_classifier(2 * ds.n, b, 3, "full", None))
    tracemalloc.start()
    try:
        plan = GroundPlan(gt, budget, make_rng(3))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [batch] = plan.batches  # partOf, the one learnable predicate
    cache = batch.x.nbytes
    arity, constants = 2, len(gt.constants)
    assert batch.x.shape == (len(batch.indices), 2 * b)

    slot_tables = arity * constants * b * 8  # one branch: table @ gate_j, or table @ fourier_j
    strip_tables = 2 * arity * constants * min(SLOT_STRIP_COLS, b) * 8  # cos and sin of one strip
    # the ALBM pass holds at most three (rows, B) arrays at once, the Fourier
    # pass the last of those and six (rows, strip) ones
    block_temporaries = SLOT_BLOCK_ROWS * max(3 * b, b + 6 * min(SLOT_STRIP_COLS, b)) * 8
    plan_arrays = retained - cache  # what the plan keeps besides the cache
    slack = 1 * MiB  # Python objects, the lift's argument rows
    bound = cache + slot_tables + strip_tables + block_temporaries + plan_arrays + slack
    assert plan_arrays < cache / 10  # the cache dominates, so the bound is tight
    assert peak <= bound, (f"plan build peaked at {peak / MiB:.2f} MiB, {(peak - bound) / MiB:.2f} MiB over "
                           f"the bound: cache {cache / MiB:.2f}, slot tables {slot_tables / MiB:.2f}, "
                           f"strips {strip_tables / MiB:.2f}, blocks {block_temporaries / MiB:.2f}, "
                           f"plan arrays {plan_arrays / MiB:.2f}, slack {slack / MiB:.2f}")
