"""Top-k selection against a sort oracle, plan invariants, group round-trips."""

import copy
import math

import numpy as np
import pytest

from squant import gradtape as gt
from squant.model import (
    MOMENTUM,
    Calibration,
    MicroTransformerConfig,
    forward_tape,
    group_scale,
    init_params,
    params_to_tape,
)
from squant.quant import QuantSpec, calibrate_scale, fake_quant, quantize, round_clip
from squant.seeding import substream
from squant.token_bits import TokenBitPlan, assign_bits, group_quantize, plan_for_layer, token_importance

import reference as ref


def sorted_topk_oracle(scores, k):
    """Exhaustive reference: sort by (-score, index), take the first k."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def hi_tokens(scores, rho):
    return np.flatnonzero(assign_bits(np.asarray(scores), rho).bits == 8)


def site_spec(x, plan, scale_hi=None, scale_lo=None):
    """The quantizer of site x under ``plan``: each group at its given scale, else at its rows' max-abs scale."""
    return group_quantize(x, plan, group_scale(x, plan.hi, 8, scale_hi), group_scale(x, plan.lo, 4, scale_lo))


def fq_grouped(x, plan, scale_hi=None, scale_lo=None):
    """One grouped fake-quant node of x under ``site_spec``."""
    return fake_quant(x, site_spec(x.array, plan, scale_hi, scale_lo))


def random_causal_map(rng, layers, heads, n):
    logits = rng.normal(size=(layers, heads, n, n))
    mask = np.tril(np.ones((n, n), dtype=bool))
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e = np.where(mask, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


class TestImportance:
    def test_single_head_is_column_zero(self):
        m = random_causal_map(substream(5, "imp-1h"), 2, 1, 6)
        np.testing.assert_allclose(token_importance(m[1]), m[1, 0, :, 0])

    def test_token_zero_scores_one(self):
        m = random_causal_map(substream(5, "imp-t0"), 1, 3, 5)
        assert token_importance(m[0])[0] == pytest.approx(1.0)

    def test_hand_average(self):
        probs = np.zeros((2, 3, 3))
        probs[0] = [[1, 0, 0], [0.4, 0.6, 0], [0.2, 0.3, 0.5]]
        probs[1] = [[1, 0, 0], [0.2, 0.8, 0], [0.0, 0.45, 0.55]]
        np.testing.assert_allclose(token_importance(probs), [1.0, 0.3, 0.1])

    def test_one_layer_map_only(self):
        m = random_causal_map(substream(5, "imp-oor"), 2, 1, 4)
        with pytest.raises(ValueError, match=r"\[H, N, N\]"):
            token_importance(m)  # the whole [L, H, N, N] stack, not one layer's map
        with pytest.raises(ValueError, match=r"\[H, N, N\]"):
            token_importance(m[0, :, :, :3])

    def test_plan_for_layer_scores_with_it(self, monkeypatch):
        import squant.token_bits

        m = random_causal_map(substream(5, "imp-plan"), 2, 2, 8)
        seen = []
        monkeypatch.setattr(squant.token_bits, "token_importance", lambda p: seen.append(p) or token_importance(p))
        prev = m[0]
        plan = plan_for_layer(prev, 0.5, 8)
        assert len(seen) == 1 and seen[0] is prev
        np.testing.assert_array_equal(plan.bits, assign_bits(token_importance(prev), 0.5).bits)


class TestAssignBits:
    def test_rho_boundaries(self):
        scores = np.array([0.5, 0.4, 0.3])
        assert np.all(assign_bits(scores, 1.0).bits == 8)
        assert np.all(assign_bits(scores, 0.0).bits == 4)

    def test_worked_example(self):
        plan = assign_bits(np.array([0.9, 0.1, 0.5, 0.3]), 0.5)
        np.testing.assert_array_equal(plan.bits, [8, 4, 8, 4])
        assert plan.k == 2

    def test_worked_example_threshold(self):
        scores = np.array([0.9, 0.1, 0.5, 0.3])
        hi = hi_tokens(scores, 0.5)
        np.testing.assert_array_equal(hi, [0, 2])
        # the k-th largest score is the cut: every 8-bit token is at or above it, every 4-bit one below
        assert scores[hi].min() == 0.5
        assert np.all(np.delete(scores, hi) < 0.5)

    def test_k_zero(self):
        assert hi_tokens([0.3, 0.1], 0.4).size == 0  # floor(0.4 * 2) = 0

    def test_all_equal_prefers_low_index(self):
        np.testing.assert_array_equal(hi_tokens(np.full(5, 0.2), 0.4), [0, 1])
        np.testing.assert_array_equal(hi_tokens([0.0, -0.0, 0.0, -0.0], 0.5), [0, 1])  # +0.0 ties -0.0

    def test_k_equals_n(self):
        np.testing.assert_array_equal(hi_tokens([0.2, 0.9, 0.1], 1.0), [0, 1, 2])

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
            plan = assign_bits(scores, k / n)
            assert plan.k == k
            np.testing.assert_array_equal(np.flatnonzero(plan.bits == 8), sorted_topk_oracle(scores.tolist(), k))

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


class TestPlanSize:
    """A plan is its bits: k, the 8-bit count, is read from them."""

    def test_assign_bits_k_is_floor_rho_n(self):
        rng = substream(5, "plan-k")
        for _ in range(50):
            n = int(rng.integers(1, 40))
            rho = float(rng.uniform())
            plan = assign_bits(rng.uniform(size=n), rho)
            assert plan.k == math.floor(rho * n + 1e-9) == int((plan.bits == 8).sum())

    def test_uniform_plan_k(self):
        for n in (0, 1, 7):
            assert TokenBitPlan(np.full(n, 8)).k == n
            assert TokenBitPlan(np.full(n, 4)).k == 0

    def test_k_follows_the_bits(self):
        assert TokenBitPlan(np.array([4, 8, 8, 4, 8])).k == 3
        with pytest.raises(ValueError, match="4 or 8"):
            TokenBitPlan(np.array([4, 6]))


class TestPlanSource:
    def test_layer_zero_has_no_map(self):
        # the forward plans layer 0 without a map and each later layer from the previous layer's map
        cfg = MicroTransformerConfig(layers=3, heads=2, dim=8, vocab=16, seq_len=8, seed=5)
        tape = gt.Tape(dtype=np.float32)
        toks = substream(5, "ps-forward").integers(0, cfg.vocab, size=cfg.seq_len)
        res = forward_tape(tape, params_to_tape(tape, init_params(cfg)), toks, cfg, quantized=True)
        np.testing.assert_array_equal(res.plans[0].bits, plan_for_layer(None, cfg.rho, cfg.seq_len).bits)
        for l in (1, 2):
            np.testing.assert_array_equal(res.plans[l].bits, plan_for_layer(res.attn_probs[l - 1], cfg.rho, cfg.seq_len).bits)

    def test_layer_zero_uniform_eight(self):
        plan = plan_for_layer(None, rho=0.5, n_tokens=6)
        assert np.all(plan.bits == 8)

    def test_layer_zero_rho_zero_uniform_four(self):
        plan = plan_for_layer(None, rho=0.0, n_tokens=6)
        assert np.all(plan.bits == 4)

    def test_deeper_layers_use_previous_map(self):
        m = random_causal_map(substream(5, "ps-prev"), 2, 2, 8)
        plan = plan_for_layer(m[0], rho=0.5, n_tokens=8)
        scores = m[0][:, :, 0].mean(axis=0)
        np.testing.assert_array_equal(plan.bits, assign_bits(scores, 0.5).bits)

    def test_identical_maps_identical_plans(self):
        m = random_causal_map(substream(5, "ps-same"), 1, 2, 8)
        maps = [m[0]] * 3
        plans = [plan_for_layer(maps[l - 1], 0.25, 8).bits for l in (1, 2, 3)]
        np.testing.assert_array_equal(plans[0], plans[1])
        np.testing.assert_array_equal(plans[1], plans[2])


class TestGrouping:
    def test_scatter_gather_identity(self):
        rng = substream(5, "grp-rt")
        for _ in range(50):
            n = int(rng.integers(1, 20))
            x = rng.normal(size=(n, 5))
            plan = assign_bits(rng.uniform(size=n), float(rng.uniform()))
            hi, lo = ref.gather_tokens(x, plan)
            np.testing.assert_array_equal(ref.scatter_tokens(hi, lo, plan), x)

    def test_groups_partition_and_ascend(self):
        plan = assign_bits(np.array([0.9, 0.1, 0.5, 0.3, 0.7]), 0.5)
        assert np.all(np.diff(plan.hi) > 0)
        assert np.all(np.diff(plan.lo) > 0)
        merged = np.concatenate([plan.hi, plan.lo])
        np.testing.assert_array_equal(np.sort(merged), np.arange(5))

    def test_single_group_matches_plain_quantization(self):
        rng = substream(5, "grp-plain")
        x = rng.normal(size=(6, 4))
        plan = TokenBitPlan(np.full(6, 8))
        spec = QuantSpec(bits=8, scale=calibrate_scale(x, 8))
        np.testing.assert_array_equal(quantize(x, site_spec(x, plan)), quantize(x, spec))
        assert plan.lo.size == 0
        # a per-row spec whose rows share one width and one scale is the scalar spec: codes, mask and fake_quant bytes
        x = x.astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        for bits in (4, 8):
            scalar = QuantSpec(bits, 0.6 * calibrate_scale(x, bits))  # below the max-abs scale: some entries clip
            per_row = QuantSpec(np.full((6, 1), bits), np.full((6, 1), scalar.scale))
            (codes, mask), (want_codes, want_mask) = round_clip(x, per_row, True), round_clip(x, scalar, True)
            assert codes.tobytes() == want_codes.tobytes() and mask.tobytes() == want_mask.tobytes()
            assert 0 < mask.sum() < mask.size
            for surrogate in (False, True):
                runs = []
                for q in (per_row, scalar):
                    tape = gt.Tape(dtype=np.float32)
                    t = tape.parameter(x)
                    y = fake_quant(t, q, surrogate)
                    tape.backward(ref.sum_all(ref.mul(y, tape.constant(g))))
                    runs.append((y.array.tobytes(), t.grad.tobytes()))
                assert runs[0] == runs[1]

    def test_two_scales_one_per_group(self):
        rng = substream(5, "grp-scales")
        x = rng.normal(size=(8, 3))
        plan = assign_bits(rng.uniform(size=8), 0.5)
        spec = site_spec(x, plan)
        hi, lo = ref.gather_tokens(x, plan)
        assert group_scale(x, plan.hi, 8) == pytest.approx(np.abs(hi).max() / 127)
        assert group_scale(x, plan.lo, 4) == pytest.approx(np.abs(lo).max() / 7)
        np.testing.assert_array_equal(spec.scale[plan.hi], group_scale(x, plan.hi, 8))
        np.testing.assert_array_equal(spec.scale[plan.lo], group_scale(x, plan.lo, 4))

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            group_quantize(np.zeros((3, 2)), TokenBitPlan(np.full(4, 8)), 1.0, 1.0)


class TestFakeQuantGrouped:
    def test_matches_numpy_grouping(self):
        rng = substream(5, "fqg-fwd")
        x = rng.normal(size=(8, 6))
        plan = assign_bits(rng.uniform(size=8), 0.5)
        tape = gt.Tape(dtype=np.float64)
        y = fq_grouped(tape.parameter(x), plan)
        scale_hi, scale_lo = group_scale(x, plan.hi, 8), group_scale(x, plan.lo, 4)
        hi, lo = ref.gather_tokens(quantize(x, group_quantize(x, plan, scale_hi, scale_lo)), plan)
        want = ref.scatter_tokens(
            ref.dequantize(hi, scale_hi, np.float64),
            ref.dequantize(lo, scale_lo, np.float64),
            plan,
        )
        np.testing.assert_array_equal(y.data, want)

    def test_uniform_plan_equals_plain_fake_quant(self):
        rng = substream(5, "fqg-uni")
        x = rng.normal(size=(5, 3))
        for bits in (4, 8):
            tape = gt.Tape(dtype=np.float64)
            y = fq_grouped(tape.parameter(x), TokenBitPlan(np.full(5, bits)))
            tape2 = gt.Tape(dtype=np.float64)
            spec = QuantSpec(bits=bits, scale=calibrate_scale(x, bits))
            want = fake_quant(tape2.parameter(x), spec)
            np.testing.assert_array_equal(y.data, want.data)

    def test_gradient_routes_through_groups(self):
        rng = substream(5, "fqg-grad")
        x = rng.normal(size=(6, 4))
        plan = assign_bits(rng.uniform(size=6), 0.5)
        w = rng.normal(size=(6, 4))
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        tape.backward(ref.sum_all(ref.mul(fq_grouped(t, plan), tape.parameter(w))))
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
        y = fq_grouped(t, plan, scale_hi=scales[8], scale_lo=scales[4])
        tape.backward(ref.sum_all(ref.mul(y, tape.constant(g))))
        mask = np.zeros_like(x)
        for bits, scale in scales.items():
            idx = np.flatnonzero(plan.bits == bits)
            ref_tape = gt.Tape(dtype=np.float64)
            rows = ref_tape.parameter(x[idx])
            ref_tape.backward(ref.sum_all(fake_quant(rows, QuantSpec(bits=bits, scale=scale))))
            assert 0 < rows.grad.sum() < rows.grad.size  # this group clips somewhere
            mask[idx] = rows.grad
        np.testing.assert_array_equal(t.grad, np.where(mask == 1.0, g, 0.0))
        clipped = mask == 0.0
        assert (clipped & (g < 0)).any()
        assert not np.signbit(t.grad[clipped]).any()  # +0.0, never -0.0

    def test_fixed_scales_bypass_calibration(self):
        x = np.ones((4, 2)) * 3.0
        tape = gt.Tape(dtype=np.float64)
        y = fq_grouped(tape.parameter(x), TokenBitPlan(np.full(4, 8)), scale_hi=1.0)
        np.testing.assert_array_equal(y.data, x)  # 3.0 / 1.0 rounds to 3 exactly


# The per-group formulation the one-rounding quantizer replaced, kept as the
# reference: gather each group's rows, quantize the group on its own, scatter
# the dequantized values back; the backward gathers again, re-rounds for the
# straight-through mask and scatters it.
def ref_round(t):
    r = np.abs(t) + 0.5
    np.floor(r, out=r)
    return np.copysign(r, t)


def ref_quantize(x, scale, bits):
    qmax = (1 << (bits - 1)) - 1
    r = ref_round(np.asarray(x, dtype=np.float64) / scale)
    return np.clip(r, -qmax - 1, qmax).astype(np.int8)


def ref_ste_mask(x, scale, bits):
    qmax = (1 << (bits - 1)) - 1
    r = ref_round(np.asarray(x, dtype=np.float64) / scale)
    return ((r >= -qmax - 1) & (r <= qmax)).astype(x.dtype)


def ref_clip(x, scale, bits):
    qmax = (1 << (bits - 1)) - 1
    lo, hi = (-qmax - 1) * scale, qmax * scale
    return np.clip(x, x.dtype.type(lo), x.dtype.type(hi)), ((x >= lo) & (x <= hi)).astype(x.dtype)


def ref_group_scale(x, bits, ema, fixed, training):
    """``ema`` is None or a [running_max, observed] pair, folded in place at MOMENTUM when training."""
    if fixed is not None:
        return fixed
    if x.size == 0:
        return 1.0
    if ema is None:
        return calibrate_scale(x, bits)
    if training:
        m = float(np.abs(x).max())
        ema[:] = [MOMENTUM * ema[0] + (1.0 - MOMENTUM) * m if ema[1] else m, True]
    frozen = ema[0]
    return frozen / float((1 << (bits - 1)) - 1) if frozen > 0 else 1.0


def ref_fake_quant_grouped(x, g, plan, emas, fixed, training, surrogate):
    """Forward values, per-group (codes, scale) and input gradient of the gather/scatter formulation."""
    hi, lo = np.flatnonzero(plan.bits == 8), np.flatnonzero(plan.bits == 4)
    inverse = np.argsort(np.concatenate([hi, lo]))
    groups = []
    for idx, bits, ema, scale in zip((hi, lo), (8, 4), emas, fixed):
        rows = x[idx]
        scale = ref_group_scale(rows, bits, ema, scale, training)
        groups.append((rows, bits, scale, ref_quantize(rows, scale, bits)))
    if surrogate:
        parts = [ref_clip(rows, scale, bits) for rows, bits, scale, _ in groups]
        y = np.concatenate([p[0] for p in parts])[inverse]
        mask = np.concatenate([p[1] for p in parts])[inverse]
    else:
        y = np.concatenate([codes.astype(x.dtype) * x.dtype.type(scale) for _, _, scale, codes in groups])[inverse]
        mask = np.concatenate([ref_ste_mask(rows, scale, bits) for rows, bits, scale, _ in groups])[inverse]
    return y, [(codes, scale) for _, _, scale, codes in groups], g * mask + 0.0


def tie_rows(rng, n, d, scales, plan, dtype):
    """Rows with entries on +-(k + 1/2) * scale of their group and on their neighbours either side."""
    x = rng.normal(size=(n, d)) * rng.choice([0.05, 1.0, 20.0])
    for t in range(n):
        bits = int(plan.bits[t])
        qmax = (1 << (bits - 1)) - 1
        k = rng.integers(-qmax - 2, qmax + 2, size=d) + 0.5
        k[0] = rng.choice([-qmax - 0.5, qmax + 0.5])  # the ties either side of the clip
        x[t] = np.where(rng.uniform(size=d) < 0.7, k * scales[bits], x[t])
        x[t, 0] = k[0] * scales[bits]
    x = x.astype(dtype)
    step = rng.integers(-1, 2, size=x.shape)  # nextafter down, exactly on the tie, or up
    return np.where(step < 0, np.nextafter(x, -np.inf), np.where(step > 0, np.nextafter(x, np.inf), x))


def ema_pair(rng):
    """Two [running_max, observed] pairs, each unobserved or observed once."""
    return [[float(rng.uniform(0.1, 5.0)), True] if rng.uniform() < 0.5 else [0.0, False] for _ in range(2)]


def observed_maxima(emas):
    """The calibration table of two [running_max, observed] pairs: the observed groups' running maxima."""
    return {group: m for group, (m, observed) in zip(("hi", "lo"), emas) if observed}


class TestOneRoundingOracle:
    """group_quantize + fake_quant against the gather/quantize/scatter reference, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("surrogate", [False, True])
    def test_matches_gather_scatter_reference(self, dtype, surrogate):
        rng = substream(5, f"oracle-{np.dtype(dtype).name}-{surrogate}")
        blocked = 0
        for case in range(300):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            rho = float(rng.choice([0.0, 1.0, rng.uniform()]))
            plan = assign_bits(rng.uniform(size=n), rho)
            # power-of-two scales make the float32 ties exact; the others land next to them
            scales = {b: float(rng.choice([2.0**-5, 0.0123, 0.37])) * (16 if b == 4 else 1) for b in (8, 4)}
            x = tie_rows(rng, n, d, scales, plan, dtype)
            g = rng.normal(size=(n, d)).astype(dtype)
            fixed = (scales[8], scales[4]) if case % 3 == 0 else (None, None)
            emas = ema_pair(rng) if case % 3 == 1 else (None, None)
            training = bool(rng.uniform() < 0.5)
            ref_emas = copy.deepcopy(emas)
            want_y, want_groups, want_grad = ref_fake_quant_grouped(x, g, plan, ref_emas, fixed, training, surrogate)

            tape = gt.Tape(dtype=dtype)
            t = tape.parameter(x)
            calib = None
            if emas[0] is not None:  # the model's calibration, with the observed groups' running maxima
                calib = Calibration()
                calib.ema = observed_maxima(emas)
            scales = [  # resolved as the model resolves them
                group_scale(x, rows, bits, given, calib, group, training)
                for group, rows, bits, given in (("hi", plan.hi, 8, fixed[0]), ("lo", plan.lo, 4, fixed[1]))
            ]
            spec = group_quantize(x, plan, *scales)
            y = fake_quant(t, spec, surrogate=surrogate)
            tape.backward(ref.sum_all(ref.mul(y, tape.constant(g))))

            assert y.data.dtype == want_y.dtype and y.data.tobytes() == want_y.tobytes()
            for rows, got_scale, (codes, scale) in zip(ref.gather_tokens(quantize(x, spec), plan), scales, want_groups):
                assert rows.dtype == codes.dtype and rows.shape == codes.shape
                assert rows.tobytes() == codes.tobytes()
                assert got_scale == scale
            if calib is not None:
                assert calib.ema == observed_maxima(ref_emas)
            assert t.grad.dtype == want_grad.dtype and t.grad.tobytes() == want_grad.tobytes()
            blocked += int(np.count_nonzero(want_grad == 0))
        assert blocked > 100  # the mask did block gradients, so it was compared where it matters

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_fake_quant_at_ties(self, dtype):
        rng = substream(5, f"oracle-weight-{np.dtype(dtype).name}")
        for bits in (4, 8):
            for scale in (2.0**-6, 0.0123, None):
                qmax = (1 << (bits - 1)) - 1
                w = rng.normal(size=(9, 7))
                if scale is None:  # max-abs scale, as the QAT step takes it
                    scale = calibrate_scale(w.astype(dtype), bits)
                k = rng.integers(-qmax - 2, qmax + 2, size=w.shape) + 0.5
                k[0, :4] = [-qmax - 1.5, -qmax - 0.5, qmax - 0.5, qmax + 0.5]  # the ties either side of the clip
                w = np.where(rng.uniform(size=w.shape) < 0.7, k * scale, w)
                w[0, :4] = k[0, :4] * scale
                w = w.astype(dtype)
                step = rng.integers(-1, 2, size=w.shape)
                w = np.where(step < 0, np.nextafter(w, -np.inf), np.where(step > 0, np.nextafter(w, np.inf), w))
                g = rng.normal(size=w.shape).astype(dtype)
                spec = QuantSpec(bits=bits, scale=scale)
                tape = gt.Tape(dtype=dtype)
                t = tape.parameter(w)
                y = fake_quant(t, spec)
                tape.backward(ref.sum_all(ref.mul(y, tape.constant(g))))
                want_y = ref_quantize(w, scale, bits).astype(dtype) * np.dtype(dtype).type(scale)
                want_grad = g * ref_ste_mask(w, scale, bits) + 0.0
                assert y.data.tobytes() == want_y.tobytes()
                assert t.grad.tobytes() == want_grad.tobytes()
                assert quantize(w, spec).tobytes() == ref_quantize(w, scale, bits).tobytes()
