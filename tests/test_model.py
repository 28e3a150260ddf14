"""Forward-path contracts: teacher/student agreement, plan degeneracy, dual mode."""

import gc
import weakref

import numpy as np
import pytest

from squant import gradtape as gt
from squant.kernels import CostCounter
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

        def counting(original, key, counts=lambda *args: True):
            def wrapper(*args, **kwargs):
                calls[key] += bool(counts(*args))
                return original(*args, **kwargs)

            return original, wrapper

        for name, (original, wrapper) in {
            "pack_int4": counting(squant.kernels.pack_int4, "pack_int4"),
            "quantize": counting(squant.quant.quantize, "weight quantize", lambda x, spec: spec.target == "weight"),
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
    def test_non_finite_weight_rejected_at_compile(self, bad):
        cfg = small_cfg()
        params = init_params(cfg)
        params["l1.mlp.w2"][3, 5] = bad
        with pytest.raises(ValueError, match="l1.mlp.w2"):
            compile_int(cfg, params)

    def test_weight_bits_must_match_the_config(self):
        cfg = small_cfg(weight_bits=4)
        compiled = compile_int(cfg, init_params(cfg))
        with pytest.raises(ValueError, match="4-bit"):
            forward_int(small_cfg(weight_bits=8), compiled, tokens_for(cfg), calib=None)


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
