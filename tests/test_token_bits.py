"""Top-k selection against a sort oracle, plan invariants, group round-trips."""

import math

import numpy as np
import pytest

from squant import gradtape as gt
from squant.quant import EmaState, QuantSpec, dequantize, fake_quant, quantize
from squant.seeding import substream
from squant.token_bits import (
    AttentionMap,
    TokenBitPlan,
    TokenGroups,
    assign_bits,
    fake_quant_grouped,
    gather_tokens,
    group_quantize,
    heap_topk,
    plan_for_layer,
    plan_source,
    scatter_tokens,
    token_importance,
    uniform_plan,
)


def sorted_topk_oracle(scores, k):
    """Exhaustive reference: sort by (-score, index), take the first k."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    idx = sorted(order[:k])
    threshold = min((scores[i] for i in idx), default=math.inf)
    return threshold, idx


def random_causal_map(rng, layers, heads, n):
    logits = rng.normal(size=(layers, heads, n, n))
    mask = np.tril(np.ones((n, n), dtype=bool))
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e = np.where(mask, e, 0.0)
    return AttentionMap(e / e.sum(axis=-1, keepdims=True))


class TestImportance:
    def test_single_head_is_column_zero(self):
        m = random_causal_map(substream(5, "imp-1h"), 2, 1, 6)
        np.testing.assert_allclose(token_importance(m, 1), m.probs[1, 0, :, 0])

    def test_token_zero_scores_one(self):
        m = random_causal_map(substream(5, "imp-t0"), 1, 3, 5)
        assert token_importance(m, 0)[0] == pytest.approx(1.0)

    def test_hand_average(self):
        probs = np.zeros((1, 2, 3, 3))
        probs[0, 0] = [[1, 0, 0], [0.4, 0.6, 0], [0.2, 0.3, 0.5]]
        probs[0, 1] = [[1, 0, 0], [0.2, 0.8, 0], [0.0, 0.45, 0.55]]
        m = AttentionMap(probs)
        np.testing.assert_allclose(token_importance(m, 0), [1.0, 0.3, 0.1])

    def test_layer_out_of_range(self):
        m = random_causal_map(substream(5, "imp-oor"), 2, 1, 4)
        with pytest.raises(IndexError):
            token_importance(m, 2)

    def test_map_validation(self):
        bad = np.full((1, 1, 2, 2), 0.5)
        with pytest.raises(ValueError, match="above the diagonal"):
            AttentionMap(bad)
        with pytest.raises(ValueError, match="sum to 1"):
            AttentionMap(np.tril(np.full((1, 1, 3, 3), 0.9)))


class TestHeapTopk:
    def test_k_zero(self):
        thr, idx = heap_topk(np.array([0.3, 0.1]), 0)
        assert thr == math.inf and idx.size == 0

    def test_worked_example(self):
        thr, idx = heap_topk(np.array([0.9, 0.1, 0.5, 0.3]), 2)
        assert thr == 0.5
        np.testing.assert_array_equal(idx, [0, 2])

    def test_all_equal_prefers_low_index(self):
        thr, idx = heap_topk(np.full(5, 0.2), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        assert thr == 0.2

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            heap_topk(np.ones(3), 4)

    def test_matches_sort_oracle(self):
        rng = substream(5, "topk-oracle")
        for _ in range(200):
            n = int(rng.integers(1, 30))
            # duplicates on purpose: draw from a small value set half the time
            if rng.uniform() < 0.5:
                scores = rng.choice([0.1, 0.2, 0.3], size=n)
            else:
                scores = rng.uniform(size=n)
            k = int(rng.integers(0, n + 1))
            thr, idx = heap_topk(scores, k)
            want_thr, want_idx = sorted_topk_oracle(scores.tolist(), k)
            assert thr == want_thr
            np.testing.assert_array_equal(idx, want_idx)

    def test_comparison_budget(self):
        # the size-k heap must stay O(N log k), not O(N log N)
        counter = {"n": 0}

        class Counted(float):
            def __lt__(self, other):
                counter["n"] += 1
                return float.__lt__(self, other)

            def __gt__(self, other):
                counter["n"] += 1
                return float.__gt__(self, other)

            def __eq__(self, other):
                counter["n"] += 1
                return float.__eq__(self, other)

            __hash__ = float.__hash__

        rng = substream(5, "topk-count")
        n, k = 4096, 8
        scores = [Counted(v) for v in rng.uniform(size=n)]
        counter["n"] = 0
        _, idx = heap_topk(scores, k)
        assert idx.size == k
        assert counter["n"] <= 6 * n * (math.log2(k) + 2)


class TestAssignBits:
    def test_rho_boundaries(self):
        scores = np.array([0.5, 0.4, 0.3])
        assert np.all(assign_bits(scores, 1.0).bits == 8)
        assert np.all(assign_bits(scores, 0.0).bits == 4)

    def test_worked_example(self):
        plan = assign_bits(np.array([0.9, 0.1, 0.5, 0.3]), 0.5)
        np.testing.assert_array_equal(plan.bits, [8, 4, 8, 4])
        assert plan.k == 2

    def test_count_is_floor_rho_n(self):
        rng = substream(5, "bits-count")
        for _ in range(100):
            n = int(rng.integers(1, 40))
            rho = float(rng.uniform())
            scores = rng.choice([0.1, 0.5], size=n) if rng.uniform() < 0.3 else rng.uniform(size=n)
            plan = assign_bits(scores, rho)
            assert int((plan.bits == 8).sum()) == math.floor(rho * n + 1e-9)

    def test_float_product_floor(self):
        # 0.3 * 10 lands just under 3 in binary; Int() must still give 3
        plan = assign_bits(np.arange(10, dtype=float), 0.3)
        assert plan.k == 3

    def test_monotone_transform_invariance(self):
        rng = substream(5, "bits-mono")
        for _ in range(50):
            n = int(rng.integers(2, 25))
            scores = rng.uniform(size=n)
            rho = float(rng.uniform())
            base = assign_bits(scores, rho).bits
            for transform in (np.exp, lambda s: 3.0 * s + 1.0, lambda s: s**3):
                np.testing.assert_array_equal(assign_bits(transform(scores), rho).bits, base)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            assign_bits(np.ones(3), 1.5)


class TestPlanSource:
    def test_layer_zero_has_no_map(self):
        assert plan_source(0) is None
        assert plan_source(3) == 2

    def test_layer_zero_uniform_eight(self):
        plan = plan_for_layer(0, [], rho=0.5, n_tokens=6)
        assert np.all(plan.bits == 8)

    def test_layer_zero_rho_zero_uniform_four(self):
        plan = plan_for_layer(0, [], rho=0.0, n_tokens=6)
        assert np.all(plan.bits == 4)

    def test_deeper_layers_use_previous_map(self):
        m = random_causal_map(substream(5, "ps-prev"), 2, 2, 8)
        maps = [m.probs[0], m.probs[1]]
        plan = plan_for_layer(1, maps, rho=0.5, n_tokens=8)
        scores = m.probs[0][:, :, 0].mean(axis=0)
        np.testing.assert_array_equal(plan.bits, assign_bits(scores, 0.5).bits)

    def test_identical_maps_identical_plans(self):
        m = random_causal_map(substream(5, "ps-same"), 1, 2, 8)
        maps = [m.probs[0]] * 3
        plans = [plan_for_layer(l, maps, 0.25, 8).bits for l in (1, 2, 3)]
        np.testing.assert_array_equal(plans[0], plans[1])
        np.testing.assert_array_equal(plans[1], plans[2])


class TestGrouping:
    def test_scatter_gather_identity(self):
        rng = substream(5, "grp-rt")
        for _ in range(50):
            n = int(rng.integers(1, 20))
            x = rng.normal(size=(n, 5))
            plan = assign_bits(rng.uniform(size=n), float(rng.uniform()))
            gq = group_quantize(x, plan)
            hi, lo = gather_tokens(x, gq.groups)
            np.testing.assert_array_equal(scatter_tokens(hi, lo, gq.groups), x)

    def test_groups_partition_and_ascend(self):
        plan = assign_bits(np.array([0.9, 0.1, 0.5, 0.3, 0.7]), 0.5)
        gq = group_quantize(np.zeros((5, 2)), plan)
        assert np.all(np.diff(gq.groups.hi_indices) > 0)
        assert np.all(np.diff(gq.groups.lo_indices) > 0)
        merged = np.concatenate([gq.groups.hi_indices, gq.groups.lo_indices])
        np.testing.assert_array_equal(np.sort(merged), np.arange(5))

    def test_single_group_matches_plain_quantization(self):
        rng = substream(5, "grp-plain")
        x = rng.normal(size=(6, 4))
        gq = group_quantize(x, uniform_plan(6, 8))
        from squant.quant import calibrate_scale

        spec = QuantSpec(bits=8, scale=calibrate_scale(x, 8), target="activation")
        np.testing.assert_array_equal(gq.q_hi.ints, quantize(x, spec).ints)
        assert gq.q_lo.ints.size == 0

    def test_two_scales_one_per_group(self):
        rng = substream(5, "grp-scales")
        x = rng.normal(size=(8, 3))
        plan = assign_bits(rng.uniform(size=8), 0.5)
        gq = group_quantize(x, plan)
        hi, lo = gather_tokens(x, gq.groups)
        assert gq.q_hi.scale == pytest.approx(np.abs(hi).max() / 127)
        assert gq.q_lo.scale == pytest.approx(np.abs(lo).max() / 7)

    def test_ema_only_updates_when_training(self):
        x = np.ones((4, 2))
        plan = uniform_plan(4, 8)
        ema = EmaState()
        ema.update(10.0)
        group_quantize(x, plan, ema_hi=ema, training=False)
        assert ema.running_max == 10.0
        group_quantize(x, plan, ema_hi=ema, training=True)
        assert ema.running_max == pytest.approx(0.95 * 10.0 + 0.05 * 1.0)

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            group_quantize(np.zeros((3, 2)), uniform_plan(4, 8))

    def test_group_invariants_validated(self):
        with pytest.raises(ValueError, match="partition"):
            TokenGroups(hi_indices=np.array([0, 1]), lo_indices=np.array([1, 2]))


class TestFakeQuantGrouped:
    def test_matches_numpy_grouping(self):
        rng = substream(5, "fqg-fwd")
        x = rng.normal(size=(8, 6))
        plan = assign_bits(rng.uniform(size=8), 0.5)
        tape = gt.Tape(dtype=np.float64)
        y = fake_quant_grouped(tape.parameter(x), plan)
        gq = group_quantize(x, plan)
        want = scatter_tokens(
            dequantize(gq.q_hi, np.float64), dequantize(gq.q_lo, np.float64), gq.groups
        )
        np.testing.assert_array_equal(y.data, want)

    def test_uniform_plan_equals_plain_fake_quant(self):
        rng = substream(5, "fqg-uni")
        x = rng.normal(size=(5, 3))
        from squant.quant import calibrate_scale

        for bits in (4, 8):
            tape = gt.Tape(dtype=np.float64)
            y = fake_quant_grouped(tape.parameter(x), uniform_plan(5, bits))
            tape2 = gt.Tape(dtype=np.float64)
            spec = QuantSpec(bits=bits, scale=calibrate_scale(x, bits), target="activation")
            want = fake_quant(tape2.parameter(x), spec)
            np.testing.assert_array_equal(y.data, want.data)

    def test_gradient_routes_through_groups(self):
        rng = substream(5, "fqg-grad")
        x = rng.normal(size=(6, 4))
        plan = assign_bits(rng.uniform(size=6), 0.5)
        w = rng.normal(size=(6, 4))
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        tape.backward(gt.sum_all(gt.mul(fake_quant_grouped(t, plan), tape.parameter(w))))
        # all values are far from clipping here, so the STE mask is all-ones
        # and the gradient is exactly w routed back through the permutation
        np.testing.assert_array_equal(t.grad, w)

    def test_gradient_is_group_ste_mask_in_token_order(self):
        rng = substream(5, "fqg-clip")
        x = rng.normal(size=(8, 4))
        g = rng.normal(size=(8, 4))
        plan = assign_bits(rng.uniform(size=8), 0.5)
        scales = {8: 0.006, 4: 0.15}  # small enough that both groups clip
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        y = fake_quant_grouped(t, plan, scale_hi=scales[8], scale_lo=scales[4], training=False)
        tape.backward(gt.sum_all(gt.mul(y, tape.constant(g))))
        mask = np.zeros_like(x)
        for bits, scale in scales.items():
            idx = np.flatnonzero(plan.bits == bits)
            ref_tape = gt.Tape(dtype=np.float64)
            rows = ref_tape.parameter(x[idx])
            ref_tape.backward(gt.sum_all(fake_quant(rows, QuantSpec(bits=bits, scale=scale, target="activation"))))
            assert 0 < rows.grad.sum() < rows.grad.size  # this group clips somewhere
            mask[idx] = rows.grad
        np.testing.assert_array_equal(t.grad, np.where(mask == 1.0, g, 0.0))
        clipped = mask == 0.0
        assert (clipped & (g < 0)).any()
        assert not np.signbit(t.grad[clipped]).any()  # +0.0, never -0.0

    def test_fixed_scales_bypass_calibration(self):
        x = np.ones((4, 2)) * 3.0
        tape = gt.Tape(dtype=np.float64)
        y = fake_quant_grouped(
            tape.parameter(x), uniform_plan(4, 8), scale_hi=1.0, training=False
        )
        np.testing.assert_array_equal(y.data, x)  # 3.0 / 1.0 rounds to 3 exactly
