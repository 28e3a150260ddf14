"""Forward-path contracts: teacher/student agreement, plan degeneracy, dual mode."""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squant import gradtape as gt
from squant.kernels import CostCounter, gemm_i4_packed, gemm_i8
from squant.model import (
    ACT_SITES,
    Calibration,
    WEIGHT_NAMES,
    MicroTransformerConfig,
    compile_int,
    forward_int,
    forward_tape,
    forward_teacher,
    init_params,
    params_to_tape,
    perplexity_eval,
)
from squant.seeding import substream
from squant.token_bits import assign_bits, group_quantize, scatter_tokens


def small_cfg(**kw):
    base = dict(layers=2, heads=2, dim=16, vocab=24, seq_len=12, seed=3)
    base.update(kw)
    return MicroTransformerConfig(**base)


def tokens_for(cfg, name="tokens", length=None):
    rng = substream(cfg.seed, name)
    return rng.integers(0, cfg.vocab, size=length or cfg.seq_len)


class TestTeacherForward:
    def test_logits_shape(self):
        cfg = small_cfg()
        res = forward_teacher(cfg, init_params(cfg), tokens_for(cfg, length=7))
        assert res.logits.shape == (7, cfg.vocab)

    def test_length_one_attention_row(self):
        cfg = small_cfg()
        res = forward_teacher(cfg, init_params(cfg), np.array([5]))
        np.testing.assert_array_equal(res.attn_probs[0, 0], [[1.0]])

    def test_deterministic(self):
        cfg = small_cfg()
        params = init_params(cfg)
        toks = tokens_for(cfg)
        a = forward_teacher(cfg, params, toks)
        b = forward_teacher(cfg, params, toks)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        np.testing.assert_array_equal(a.attn_probs, b.attn_probs)

    def test_invalid_token_id(self):
        cfg = small_cfg()
        with pytest.raises(IndexError):
            forward_teacher(cfg, init_params(cfg), np.array([cfg.vocab]))

    def test_sequence_length_bounds(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            forward_teacher(cfg, init_params(cfg), np.zeros(cfg.seq_len + 1, dtype=np.int64))

    def test_tape_freed_without_the_collector(self):
        cfg = small_cfg()
        res = forward_teacher(cfg, init_params(cfg), tokens_for(cfg))
        tape = weakref.ref(res.logits.tape)
        assert tape().nodes == []  # every node of a constant tape folds
        gc.disable()
        try:
            del res
            assert tape() is None
        finally:
            gc.enable()

    def test_one_attention_node_per_layer(self):
        cfg = small_cfg(heads=4)
        res = forward_teacher(cfg, init_params(cfg), tokens_for(cfg, length=7))
        assert [n.shape for n in res.attn_nodes] == [(4, 7, 7)] * cfg.layers
        np.testing.assert_array_equal(np.stack([n.data for n in res.attn_nodes]), res.attn_probs)

    def test_attention_rows_stochastic_and_causal(self):
        cfg = small_cfg()
        res = forward_teacher(cfg, init_params(cfg), tokens_for(cfg))
        probs = res.attn_probs
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
        n = probs.shape[-1]
        iu = np.triu_indices(n, k=1)
        assert np.all(probs[..., iu[0], iu[1]] == 0.0)


class TestStudentForward:
    def test_quantization_disabled_equals_teacher(self):
        cfg = small_cfg()
        params = init_params(cfg)
        toks = tokens_for(cfg)
        teacher = forward_teacher(cfg, params, toks)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params, trainable=True)
        student = forward_tape(tape, tp, toks, cfg, quantized=False)
        np.testing.assert_array_equal(student.logits.data, teacher.logits.data)

    def test_w8a8_close_to_teacher(self):
        cfg = small_cfg(weight_bits=8, act_bits=8)
        params = init_params(cfg)
        toks = tokens_for(cfg)
        teacher = forward_teacher(cfg, params, toks)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params)
        student = forward_tape(tape, tp, toks, cfg, quantized=True)
        diff = np.abs(student.logits.data - teacher.logits.data).max()
        assert diff < 0.1

    def test_plans_follow_rho(self):
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        res = forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True)
        assert np.all(res.plans[0].bits == 8)  # no map yet at layer 0
        assert int((res.plans[1].bits == 8).sum()) == cfg.seq_len // 2

    def test_rho_one_bit_identical_to_uniform_a8(self):
        params = init_params(small_cfg())
        toks = tokens_for(small_cfg())
        outs = {}
        for name, cfg in (
            ("adaptive", small_cfg(act_bits="adaptive", rho=1.0)),
            ("uniform", small_cfg(act_bits=8)),
        ):
            tape = gt.Tape(dtype=np.float32)
            tp = params_to_tape(tape, params)
            outs[name] = forward_tape(tape, tp, toks, cfg, quantized=True).logits.data
        np.testing.assert_array_equal(outs["adaptive"], outs["uniform"])

    def test_rho_zero_bit_identical_to_uniform_a4(self):
        params = init_params(small_cfg())
        toks = tokens_for(small_cfg())
        outs = {}
        for name, cfg in (
            ("adaptive", small_cfg(act_bits="adaptive", rho=0.0)),
            ("uniform", small_cfg(act_bits=4)),
        ):
            tape = gt.Tape(dtype=np.float32)
            tp = params_to_tape(tape, params)
            outs[name] = forward_tape(tape, tp, toks, cfg, quantized=True).logits.data
        np.testing.assert_array_equal(outs["adaptive"], outs["uniform"])

    def test_training_updates_expected_ema_keys(self):
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        calib = Calibration()
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True, training=True, calib=calib)
        for site in ACT_SITES:
            assert f"l0.{site}.hi" in calib.ema  # layer 0 runs all-8
        assert "l1.attn_in.lo" in calib.ema  # layer 1 has a 4-bit group at rho=0.5

    def test_training_scales_follow_updated_ema(self):
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        calib = Calibration()
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        res = forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True, training=True, calib=calib)
        expected = {}
        for l, plan in enumerate(res.plans):
            for group, bits in (("hi", 8), ("lo", 4)):
                if (plan.bits == bits).any():
                    for site in ACT_SITES:
                        key = f"l{l}.{site}.{group}"
                        expected[key] = calib.ema[key].running_max / ((1 << (bits - 1)) - 1)
        assert any(key.endswith(".lo") for key in expected)
        got = {key: res.scales_used[key] for key in res.scales_used if key.endswith((".hi", ".lo"))}
        assert got == expected

    def test_scale_and_plan_overrides_pin_the_grid(self):
        cfg = small_cfg(weight_bits=8, act_bits=8)
        params = init_params(cfg)
        toks = tokens_for(cfg)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params)
        res = forward_tape(tape, tp, toks, cfg, quantized=True)
        tape2 = gt.Tape(dtype=np.float32)
        tp2 = params_to_tape(tape2, params)
        res2 = forward_tape(
            tape2,
            tp2,
            toks,
            cfg,
            quantized=True,
            scale_overrides=res.scales_used,
            plans_override=res.plans,
        )
        np.testing.assert_array_equal(res.logits.data, res2.logits.data)
        assert res2.scales_used == res.scales_used


class TestIntegerPath:
    @pytest.mark.parametrize("act_bits", [8, 4, "adaptive"])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_dual_path_agreement(self, weight_bits, act_bits):
        # seed pinned away from rounding ties: the fake path accumulates in
        # float32 while the int path is exact, so an activation sitting on a
        # quantizer half-way point can round differently and jump by one bin
        cfg = small_cfg(weight_bits=weight_bits, act_bits=act_bits, rho=0.5, seed=0)
        params = init_params(cfg)
        toks = tokens_for(cfg)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params)
        fake = forward_tape(tape, tp, toks, cfg, quantized=True, training=False, calib=None)
        got, plans = forward_int(cfg, params, toks, calib=None)
        assert np.abs(got - fake.logits.data).max() <= 1e-4
        for pa, pb in zip(plans, fake.plans):
            np.testing.assert_array_equal(pa.bits, pb.bits)

    def test_cost_counted_per_projection(self):
        cfg = small_cfg(weight_bits=4, act_bits=4)
        params = init_params(cfg)
        cost = CostCounter()
        forward_int(cfg, params, tokens_for(cfg), calib=None, cost=cost)
        t, d = cfg.seq_len, cfg.dim
        # six projections per layer, all through the packed kernel at A4
        per_layer = 3 * (d // 2) * d * t + (d // 2) * d * t + (2 * d) * d * t + (d // 2) * 4 * d * t
        assert cost.mul_count == cfg.layers * per_layer

    def test_adaptive_cost_strictly_between_uniform(self):
        params = init_params(small_cfg())
        toks = tokens_for(small_cfg())
        counts = {}
        for name, cfg in (
            ("a4", small_cfg(weight_bits=4, act_bits=4)),
            ("mixed", small_cfg(weight_bits=4, act_bits="adaptive", rho=0.5)),
            ("a8", small_cfg(weight_bits=4, act_bits=8)),
        ):
            cost = CostCounter()
            forward_int(cfg, params, toks, calib=None, cost=cost)
            counts[name] = cost.mul_count
        assert counts["a4"] < counts["mixed"] < counts["a8"]

    def test_one_group_quantize_per_site(self, monkeypatch):
        # attn_in feeds q, k and v from one set of group codes
        import squant.model
        import squant.token_bits

        calls = []
        original = squant.token_bits.group_quantize

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (squant.model, squant.token_bits):
            if getattr(module, "group_quantize", None) is original:
                monkeypatch.setattr(module, "group_quantize", counting)
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        calib = Calibration()
        forward_int(cfg, init_params(cfg), tokens_for(cfg), calib=calib)
        assert len(calls) == len(ACT_SITES) * cfg.layers
        assert set(calib.ema) == {
            f"l{l}.{site}.{group}" for l in range(cfg.layers) for site in ACT_SITES for group in ("hi", "lo")
        }
        assert not any(ema.initialized for ema in calib.ema.values())

    def test_no_mask_without_a_backward(self, monkeypatch):
        # constant inputs: the integer, teacher and eval forwards build no straight-through mask
        import squant.quant

        masks = []
        original = squant.quant._ste_mask

        def counting(*args):
            masks.append(1)
            return original(*args)

        monkeypatch.setattr(squant.quant, "_ste_mask", counting)
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        params = init_params(cfg)
        toks = tokens_for(cfg, length=4 * cfg.seq_len + 1)
        forward_int(cfg, params, toks[: cfg.seq_len], calib=None)
        forward_teacher(cfg, params, toks[: cfg.seq_len])
        perplexity_eval(cfg, params, toks, calib=Calibration())
        assert masks == []
        tape = gt.Tape()
        forward_tape(tape, params_to_tape(tape, params), toks[: cfg.seq_len], cfg, quantized=True, training=True)
        assert len(masks) == cfg.layers * (len(WEIGHT_NAMES) + len(ACT_SITES))

    def test_plan_positions_built_once_per_plan(self, monkeypatch):
        from functools import cached_property

        from squant.token_bits import TokenBitPlan

        built = []
        for name in ("hi", "lo"):

            def counting(plan, build=TokenBitPlan.__dict__[name].func, name=name):
                built.append(name)
                return build(plan)

            prop = cached_property(counting)
            prop.__set_name__(TokenBitPlan, name)
            monkeypatch.setattr(TokenBitPlan, name, prop)
        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        _, plans = forward_int(cfg, init_params(cfg), tokens_for(cfg), calib=None)
        # six sites per layer read each plan's positions; each array is built once
        assert sorted(built) == ["hi"] * cfg.layers + ["lo"] * cfg.layers
        assert plans[1].hi is plans[1].hi and plans[1].lo is plans[1].lo
        np.testing.assert_array_equal(np.sort(np.concatenate([plans[1].hi, plans[1].lo])), np.arange(cfg.seq_len))

    def test_eight_bit_weights_take_one_byte_kernel_call(self, monkeypatch):
        import squant.model

        calls = []
        original = squant.model.gemm_i8

        def counting(w, x, cost):
            calls.append(x.shape[1])
            return original(w, x, cost)

        monkeypatch.setattr(squant.model, "gemm_i8", counting)
        cfg = small_cfg(weight_bits=8, act_bits="adaptive", rho=0.5)
        cost = CostCounter()
        _, plans = forward_int(cfg, init_params(cfg), tokens_for(cfg), calib=None, cost=cost)
        assert 0 < plans[1].k < cfg.seq_len  # layer 1 holds both groups
        assert calls == [cfg.seq_len] * (len(WEIGHT_NAMES) * cfg.layers)  # one call per projection, all tokens
        t, d = cfg.seq_len, cfg.dim
        mkn = cfg.layers * (4 * d * d * t + 2 * (4 * d) * d * t)  # M*K*N summed over the six projections
        assert (cost.mul_count, cost.add_count) == (mkn, mkn)

    def test_int_path_token_validation(self):
        cfg = small_cfg()
        with pytest.raises(IndexError):
            forward_int(cfg, init_params(cfg), np.array([cfg.vocab]), calib=None)


class TestCompiledModel:
    @pytest.mark.parametrize("dim", [32, 128])
    @pytest.mark.parametrize("act_bits", [4, 8, "adaptive"])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_compiled_run_bit_identical_to_float_params(self, weight_bits, act_bits, dim):
        for seed in range(4):
            cfg = MicroTransformerConfig(
                dim=dim, heads=4, seq_len=dim, seed=seed, weight_bits=weight_bits, act_bits=act_bits
            )
            params = init_params(cfg)
            compiled = compile_int(cfg, params)
            for length in (cfg.seq_len, 17):
                toks = tokens_for(cfg, length=length)
                runs = []
                for model in (params, compiled):
                    cost = CostCounter()
                    logits, plans = forward_int(cfg, model, toks, calib=None, cost=cost)
                    runs.append((logits, [p.bits for p in plans], (cost.mul_count, cost.add_count)))
                (a, plans_a, cost_a), (b, plans_b, cost_b) = runs
                assert a.tobytes() == b.tobytes()
                assert cost_a == cost_b
                for pa, pb in zip(plans_a, plans_b):
                    np.testing.assert_array_equal(pa, pb)

    def test_compiled_run_quantizes_only_activations(self, monkeypatch):
        import squant.kernels
        import squant.quant
        import squant.token_bits

        calls = {"pack_int4": 0, "weight quantize": 0, "group_quantize": 0}

        def counting(original, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return original, wrapper

        for name, (original, wrapper) in {
            "pack_int4": counting(squant.kernels.pack_int4, "pack_int4"),
            "quantize": counting(squant.quant.quantize, "weight quantize"),
            "group_quantize": counting(squant.token_bits.group_quantize, "group_quantize"),
        }.items():
            for module in (squant.model, squant.kernels, squant.quant, squant.token_bits):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        cfg = small_cfg(weight_bits=4, act_bits="adaptive", rho=0.5)
        compiled = compile_int(cfg, init_params(cfg))
        projections = len(WEIGHT_NAMES) * cfg.layers
        assert calls == {"pack_int4": projections, "weight quantize": projections, "group_quantize": 0}
        calls.update(dict.fromkeys(calls, 0))
        forward_int(cfg, compiled, tokens_for(cfg), calib=None)
        assert calls == {"pack_int4": 0, "weight quantize": 0, "group_quantize": len(ACT_SITES) * cfg.layers}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_at_compile(self, bad, fresh_memo):
        cfg = small_cfg()
        params = init_params(cfg)
        forward_int(cfg, params, tokens_for(cfg), calib=None)  # keeps each weight's compiled form
        params["l1.mlp.w2"][3, 5] = bad
        with pytest.raises(ValueError, match="l1.mlp.w2"):
            compile_int(cfg, params)
        with pytest.raises(ValueError, match="l1.mlp.w2"):  # written in place after a call, still refused
            forward_int(cfg, params, tokens_for(cfg), calib=None)
        assert np.isfinite(fresh_memo[("l1.mlp.w2", cfg.weight_bits)][0]).all()  # nothing non-finite was kept

    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_compiled_arrays_are_read_only(self, weight_bits):
        cfg = small_cfg(weight_bits=weight_bits)
        compiled = compile_int(cfg, init_params(cfg))
        for proj in compiled.projections.values():
            arrays = [proj.codes] if weight_bits == 8 else [proj.codes, proj.packed.packed, proj.packed.codes, proj.packed.lanes]
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1

    def test_weight_bits_must_match_the_config(self):
        cfg = small_cfg(weight_bits=4)
        compiled = compile_int(cfg, init_params(cfg))
        with pytest.raises(ValueError, match="4-bit"):
            forward_int(small_cfg(weight_bits=8), compiled, tokens_for(cfg), calib=None)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty compiled-projection memo for this test; the module's own is restored afterwards."""
    import squant.model

    memo = {}
    monkeypatch.setattr(squant.model, "_COMPILED", memo)
    return memo


def count_weight_compiles(monkeypatch) -> dict:
    """Count pack_int4 and weight quantize calls, as test_compiled_run_quantizes_only_activations does."""
    import squant.kernels
    import squant.quant

    calls = {"pack_int4": 0, "weight quantize": 0}
    for module_of, name, key in ((squant.kernels, "pack_int4", "pack_int4"), (squant.quant, "quantize", "weight quantize")):
        original = getattr(module_of, name)

        def wrapper(*args, original=original, key=key, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        for module in (squant.model, squant.kernels, squant.quant):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def int_run(cfg, model, toks):
    """Logits bytes, plan bits and cost counts of one forward_int call."""
    cost = CostCounter()
    logits, plans = forward_int(cfg, model, toks, calib=None, cost=cost)
    return logits.tobytes(), [p.bits.tobytes() for p in plans], (cost.mul_count, cost.add_count)


def fresh_compile_run(cfg, params, toks):
    return int_run(cfg, compile_int(cfg, copy.deepcopy(params)), toks)


class TestProjectionMemo:
    """forward_int on float parameters reuses a projection while its float32 bits are unchanged."""

    def test_second_call_compiles_nothing(self, fresh_memo, monkeypatch):
        calls = count_weight_compiles(monkeypatch)
        cfg = small_cfg(weight_bits=4, act_bits="adaptive", rho=0.5)
        params, toks = init_params(cfg), tokens_for(cfg)
        projections = len(WEIGHT_NAMES) * cfg.layers
        first = int_run(cfg, params, toks)
        assert calls == {"pack_int4": projections, "weight quantize": projections}
        calls.update(dict.fromkeys(calls, 0))
        assert int_run(cfg, params, toks) == first
        assert calls == {"pack_int4": 0, "weight quantize": 0}
        assert len(fresh_memo) == projections

    def test_equal_values_in_a_new_dict_hit(self, fresh_memo, monkeypatch):
        cfg = small_cfg(weight_bits=4)
        params, toks = init_params(cfg), tokens_for(cfg)
        first = int_run(cfg, params, toks)
        calls = count_weight_compiles(monkeypatch)
        assert int_run(cfg, copy.deepcopy(params), toks) == first
        assert int_run(cfg, init_params(cfg), toks) == first
        assert calls == {"pack_int4": 0, "weight quantize": 0}

    def test_in_place_edit_recompiles_that_weight_only(self, fresh_memo, monkeypatch):
        cfg = small_cfg(weight_bits=4, act_bits="adaptive", rho=0.5)
        params, toks = init_params(cfg), tokens_for(cfg)
        before = int_run(cfg, params, toks)
        calls = count_weight_compiles(monkeypatch)
        params["l1.attn.wv"][2, 3] += 0.75
        after = int_run(cfg, params, toks)
        assert calls == {"pack_int4": 1, "weight quantize": 1}
        assert after != before
        assert after == fresh_compile_run(cfg, params, toks)
        calls.update(dict.fromkeys(calls, 0))
        assert int_run(cfg, params, toks) == after
        assert calls == {"pack_int4": 0, "weight quantize": 0}

    def test_other_parameters_always_read_from_the_caller(self, fresh_memo):
        cfg = small_cfg()
        params, toks = init_params(cfg), tokens_for(cfg)
        before = int_run(cfg, params, toks)
        for name in ("tok_emb", "l0.ln2.b", "l1.attn.bo"):
            params[name] += 0.25
            after = int_run(cfg, params, toks)
            assert after != before and after == fresh_compile_run(cfg, params, toks)
            before = after

    def test_negative_zero_misses(self, fresh_memo, monkeypatch):
        cfg = small_cfg(weight_bits=4)
        params, toks = init_params(cfg), tokens_for(cfg)
        params["l0.mlp.w1"][1, 4] = 0.0
        zero = int_run(cfg, params, toks)
        calls = count_weight_compiles(monkeypatch)
        params["l0.mlp.w1"][1, 4] = -0.0  # equal as a float, different bits
        assert int_run(cfg, params, toks) == zero
        assert calls == {"pack_int4": 1, "weight quantize": 1}
        assert np.signbit(fresh_memo[("l0.mlp.w1", 4)][0][1, 4])

    def test_weight_widths_do_not_collide(self, fresh_memo, monkeypatch):
        cfg4, cfg8 = small_cfg(weight_bits=4), small_cfg(weight_bits=8)
        params, toks = init_params(cfg4), tokens_for(cfg4)
        runs = {bits: int_run(cfg, params, toks) for bits, cfg in ((4, cfg4), (8, cfg8))}
        calls = count_weight_compiles(monkeypatch)
        for bits, cfg in ((4, cfg4), (8, cfg8)):
            assert int_run(cfg, params, toks) == runs[bits] == fresh_compile_run(cfg, params, toks)
        projections = len(WEIGHT_NAMES) * cfg4.layers
        # the fresh compiles quantize every weight and pack the 4-bit ones; the memoized calls add nothing
        assert calls == {"pack_int4": projections, "weight quantize": 2 * projections}
        assert {bits for _, bits in fresh_memo} == {4, 8} and len(fresh_memo) == 2 * projections

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        weight_bits=st.sampled_from([4, 8]),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["edit", "reset"]),
                st.integers(0, 2 * len(WEIGHT_NAMES) - 1),
                st.integers(0, 2**16),
                st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0, width=32)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_edits_and_resets_match_a_fresh_compile(self, fresh_memo, weight_bits, steps):
        cfg = small_cfg(weight_bits=weight_bits, act_bits="adaptive", rho=0.5)
        params, toks = init_params(cfg), tokens_for(cfg)
        original = copy.deepcopy(params)
        names = [f"l{l}.{w}" for l in range(cfg.layers) for w in WEIGHT_NAMES]
        for action, which, where, value in steps:
            name = names[which]
            if action == "edit":
                params[name].reshape(-1)[where % params[name].size] = value
            else:
                params[name][...] = original[name]
            assert int_run(cfg, params, toks) == fresh_compile_run(cfg, params, toks)


def grouped_linear(gq, proj, cost):
    """The grouped formulation of an integer projection, as a reference.

    Gather each group's codes, run the group's kernel (packed for 4-bit
    tokens on 4-bit weights, byte otherwise), scale by alpha_w * alpha_group,
    then scatter the rows back to token order.
    """
    parts = []
    for rows, spec in ((gq.plan.hi, gq.spec_hi), (gq.plan.lo, gq.spec_lo)):
        if not rows.size:
            parts.append(np.empty((0, proj.codes.shape[0]), dtype=np.float32))
            continue
        codes = gq.codes[rows].T  # [K, group tokens]
        if proj.packed is not None and spec.bits == 4:
            acc = gemm_i4_packed(proj.packed, codes, cost)
        else:
            acc = gemm_i8(proj.codes, codes, cost)
        parts.append((acc.astype(np.float32) * (np.float32(proj.scale) * np.float32(spec.scale))).T)
    return scatter_tokens(*parts, gq.plan)


class TestTokenOrderOracle:
    """The token-order integer projection against the grouped formulation, byte for byte."""

    @pytest.mark.parametrize("act_bits", [4, 8, "adaptive"])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_forward_int_matches_grouped_projection(self, weight_bits, act_bits, monkeypatch):
        import squant.model

        for seed in range(3):
            cfg = small_cfg(weight_bits=weight_bits, act_bits=act_bits, rho=0.5, seed=seed)
            model = compile_int(cfg, init_params(cfg))
            for length in (cfg.seq_len, 7):
                toks = tokens_for(cfg, length=length)
                runs = []
                for linear in (squant.model._linear_int, grouped_linear):
                    monkeypatch.setattr(squant.model, "_linear_int", linear)
                    cost = CostCounter()
                    logits, plans = forward_int(cfg, model, toks, calib=None, cost=cost)
                    runs.append((logits.tobytes(), [p.bits.tobytes() for p in plans], cost))
                assert runs[0] == runs[1]

    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_projection_matches_grouped_projection(self, weight_bits):
        from squant.model import _compile_projection, _linear_int

        rng = substream(9, f"oracle-linear-w{weight_bits}")
        for case in range(60):
            n, k, m = int(rng.integers(1, 20)), int(rng.integers(1, 24)), int(rng.integers(1, 24))
            rho = float(rng.choice([0.0, 1.0, rng.uniform()]))  # rho 0 and 1 leave one group empty
            plan = assign_bits(rng.uniform(size=n), rho)
            x = rng.normal(size=(n, k)) * rng.choice([0.1, 1.0, 30.0])
            gq = group_quantize(x, plan, training=False)
            proj = _compile_projection("w", rng.normal(size=(k, m)), weight_bits)
            got_cost, want_cost = CostCounter(), CostCounter()
            got = _linear_int(gq, proj, got_cost)
            want = grouped_linear(gq, proj, want_cost)
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape == (n, m)
            assert got.tobytes() == want.tobytes()
            assert got_cost == want_cost


class TestPerplexity:
    def test_uniform_model_near_vocab_size(self):
        cfg = small_cfg(vocab=16, dim=16, seq_len=16)
        params = init_params(cfg)  # near-zero logits, almost uniform
        corpus = substream(0, "ppl-corpus").integers(0, 16, size=600)
        ppl = perplexity_eval(cfg, params, corpus, quantized=False)
        assert ppl == pytest.approx(16.0, rel=0.1)

    def test_deterministic(self):
        cfg = small_cfg()
        params = init_params(cfg)
        corpus = tokens_for(cfg, length=100)
        a = perplexity_eval(cfg, params, corpus, quantized=True)
        assert a == perplexity_eval(cfg, params, corpus, quantized=True)

    def test_empty_corpus_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="too short"):
            perplexity_eval(cfg, init_params(cfg), np.arange(3), quantized=False)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_params_wrapped_once_per_call(self, quantized, monkeypatch):
        import squant.model

        cfg = small_cfg(act_bits="adaptive", rho=0.5)
        params = init_params(cfg)
        n = cfg.seq_len
        corpus = tokens_for(cfg, length=4 * n + 1)
        calib = Calibration()  # frozen EMA scales, filled by one training pass
        tape = gt.Tape()
        forward_tape(tape, params_to_tape(tape, params), corpus[:n], cfg, quantized=True, training=True, calib=calib)
        # reference: a fresh constant tape per window, the bits the shared tape must keep
        ces = []
        for start in range(0, corpus.size - n, n):
            tape = gt.Tape(dtype=np.float32)
            tp = params_to_tape(tape, params, trainable=False)
            res = forward_tape(tape, tp, corpus[start : start + n], cfg, quantized=quantized, calib=calib)
            ces.append(gt.cross_entropy(res.logits, corpus[start + 1 : start + n + 1]).item())
        wraps = []
        original = squant.model.params_to_tape
        monkeypatch.setattr(squant.model, "params_to_tape", lambda *a, **kw: wraps.append(1) or original(*a, **kw))
        ppl = perplexity_eval(cfg, params, corpus, calib=calib, quantized=quantized)
        assert len(wraps) == 1 and len(ces) == 4
        assert ppl == float(np.exp(np.mean(ces)))


class TestConfigValidation:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            MicroTransformerConfig(dim=30, heads=4)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            MicroTransformerConfig(rho=-0.1)

    def test_act_bits_values(self):
        with pytest.raises(ValueError):
            MicroTransformerConfig(act_bits=16)
