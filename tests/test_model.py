"""Forward-path contracts: teacher/student agreement, plan degeneracy, dual mode."""

import copy
import gc
import hashlib
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squant import gradtape as gt
from squant.kernels import CostCounter, gemm_i4_packed, gemm_i8, unpack_int4
from squant.model import (
    ACT_SITES,
    MOMENTUM,
    WEIGHT_BITS,
    Calibration,
    WEIGHT_NAMES,
    MicroTransformerConfig,
    compile_int,
    forward_int,
    forward_tape,
    forward_teacher,
    group_scale,
    init_params,
    params_to_tape,
    perplexity_eval,
)
from squant.quant import QuantSpec, calibrate_scale, quantize
from squant.seeding import substream
from squant.token_bits import TokenBitPlan, assign_bits, group_quantize
from squant.train import make_corpus

import reference as ref


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

    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.25, 0.5, 0.75, 1.0])
    def test_plans_follow_rho(self, rho):
        cfg = small_cfg(rho=rho)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        res = forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True)
        # no map yet at layer 0: all-8, all-4 only at rho 0 (rho 0.05 keeps no 8-bit token later on)
        first = 0 if rho == 0.0 else cfg.seq_len
        want = [first] + [int(rho * cfg.seq_len)] * (cfg.layers - 1)
        assert [int((plan.bits == 8).sum()) for plan in res.plans] == want

    def test_training_updates_expected_ema_keys(self):
        cfg = small_cfg(rho=0.5)
        calib = Calibration()
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True, training=True, calib=calib)
        for site in ACT_SITES:
            assert f"l0.{site}.hi" in calib.ema  # layer 0 runs all-8
        assert "l1.attn_in.lo" in calib.ema  # layer 1 has a 4-bit group at rho=0.5

    def test_training_scales_follow_updated_ema(self):
        cfg = small_cfg(rho=0.5)
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
                        expected[key] = calib.ema[key] / ((1 << (bits - 1)) - 1)
        assert any(key.endswith(".lo") for key in expected)
        got = {key: res.scales_used[key] for key in res.scales_used if key.endswith((".hi", ".lo"))}
        assert got == expected

    def test_scale_and_plan_overrides_pin_the_grid(self):
        cfg = small_cfg(rho=1.0)
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


class TestCalibration:
    """The one table of running max-abs activation scales."""

    X = np.array([[1.0, -7.0], [14.0, 2.0], [-3.0, 0.5]])

    def test_first_observation_sets_the_running_max(self):
        calib = Calibration()
        scale = group_scale(self.X, np.array([1, 2]), 4, calib=calib, key="l0.attn_in.lo", training=True)
        assert calib.ema == {"l0.attn_in.lo": 14.0}
        assert scale == 2.0  # 14 / (2^3 - 1)

    def test_later_observations_fold_at_the_momentum(self):
        calib = Calibration()
        group_scale(self.X, np.array([0]), 4, calib=calib, key="k", training=True)
        scale = group_scale(self.X, np.array([1]), 4, calib=calib, key="k", training=True)
        folded = MOMENTUM * 7.0 + (1.0 - MOMENTUM) * 14.0  # the float arithmetic of the fold, in this order
        assert calib.ema["k"] == folded
        assert scale == folded / 7.0

    def test_a_frozen_read_leaves_the_running_max(self):
        calib = Calibration()
        group_scale(self.X, np.array([1]), 8, calib=calib, key="k", training=True)
        assert group_scale(self.X, np.array([0, 2]), 8, calib=calib, key="k") == 14.0 / 127.0
        assert calib.ema["k"] == 14.0

    def test_an_empty_group_gives_scale_one_and_adds_no_key(self):
        calib = Calibration()
        empty = np.array([], dtype=np.int64)
        for training in (True, False):
            assert group_scale(self.X, empty, 8, calib=calib, key="k", training=training) == 1.0
            assert group_scale(np.zeros((3, 0)), np.arange(3), 4, calib=calib, key="d", training=training) == 1.0
            assert group_scale(self.X, empty, 8) == 1.0  # without a calibration too
        assert calib.ema == {}

    def test_a_frozen_read_of_an_unobserved_key_gives_scale_one(self):
        calib = Calibration()
        assert group_scale(self.X, np.arange(3), 8, calib=calib, key="k") == 1.0
        assert calib.ema == {}  # the key stays unseen: a later training pass enters it at its first max

    def test_a_zero_running_max_is_observed_and_folds(self):
        # a group of zeros enters its key at 0 (scale 1); the next observation folds into it
        calib = Calibration()
        assert group_scale(np.zeros((2, 2)), np.arange(2), 8, calib=calib, key="k", training=True) == 1.0
        assert calib.ema == {"k": 0.0}
        group_scale(self.X, np.array([1]), 8, calib=calib, key="k", training=True)
        assert calib.ema == {"k": MOMENTUM * 0.0 + (1.0 - MOMENTUM) * 14.0}

    def test_a_given_scale_beats_the_calibration(self):
        cfg = small_cfg(rho=1.0)
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, init_params(cfg))
        calib = Calibration()
        res = forward_tape(
            tape, tp, tokens_for(cfg), cfg, quantized=True, training=True, calib=calib,
            scale_overrides={"l0.attn_in.hi": 0.25},
        )
        assert res.scales_used["l0.attn_in.hi"] == 0.25
        assert "l0.attn_in.hi" not in calib.ema  # the calibration is neither read nor folded
        assert "l0.mlp_in.hi" in calib.ema and "l1.attn_in.hi" in calib.ema


    def test_a_training_pass_writes_every_key_from_state_dict_takes(self):
        # one owner of the key format: the forward's keys are the ones a checkpoint may hold
        cfg = small_cfg(rho=0.5)
        tape = gt.Tape(dtype=np.float32)
        calib = Calibration()
        tp = params_to_tape(tape, init_params(cfg))
        res = forward_tape(tape, tp, tokens_for(cfg), cfg, quantized=True, training=True, calib=calib)
        assert 0 < res.plans[1].k < cfg.seq_len  # layer 1 observes both groups
        groups = [[g for g, rows in (("hi", p.hi), ("lo", p.lo)) if rows.size] for p in res.plans]
        observed = {Calibration.key(l, site, g) for l in range(cfg.layers) for site in ACT_SITES for g in groups[l]}
        assert set(calib.ema) == observed
        assert Calibration.from_state_dict(calib.state_dict(), cfg.layers).ema == calib.ema

    @pytest.mark.parametrize("key", ["l1.attn_in.hi", "l0.attn.hi", "l0.attn_in.mid", "l0.attn_in", "l00.attn_in.hi"])
    def test_from_state_dict_refuses_a_key_of_no_quantizer(self, key):
        # a one-layer model has no layer 1, no site "attn", no group "mid", and writes its layer 0 as "l0"
        legal = {"l0.attn_in.hi": 0.5}
        assert Calibration.from_state_dict(legal, layers=1).ema == legal
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            Calibration.from_state_dict({**legal, key: 0.75}, layers=1)

    def test_the_layer_count_bounds_the_keys(self):
        d = {"l1.mlp_hidden.lo": 0.25}
        assert Calibration.from_state_dict(d, layers=2).ema == d
        with pytest.raises(ValueError, match="l1.mlp_hidden.lo"):
            Calibration.from_state_dict(d, layers=1)


class TestIntegerPath:
    @pytest.mark.parametrize("rho", [1.0, 0.0, 0.5])
    def test_dual_path_agreement(self, rho):
        # seed pinned away from rounding ties: the fake path accumulates in
        # float32 while the int path is exact, so an activation sitting on a
        # quantizer half-way point can round differently and jump by one bin
        cfg = small_cfg(rho=rho, seed=0)
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
        cfg = small_cfg(rho=0.0)
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
            ("a4", small_cfg(rho=0.0)),
            ("mixed", small_cfg(rho=0.5)),
            ("a8", small_cfg(rho=1.0)),
        ):
            cost = CostCounter()
            forward_int(cfg, params, toks, calib=None, cost=cost)
            counts[name] = cost.mul_count
        assert counts["a4"] < counts["mixed"] < counts["a8"]

    def test_one_group_quantize_per_site(self, monkeypatch):
        # attn_in feeds q, k and v from one quantizer and one rounding of its codes
        import squant.model
        import squant.quant
        import squant.token_bits

        calls = {"group_quantize": 0, "round_clip": 0}
        for owner, name in ((squant.token_bits, "group_quantize"), (squant.quant, "round_clip")):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (squant.model, squant.quant, squant.token_bits):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        cfg = small_cfg(rho=0.5)
        calib = Calibration()
        model = compile_int(cfg, init_params(cfg))
        calls.update(dict.fromkeys(calls, 0))
        forward_int(cfg, model, tokens_for(cfg), calib=calib)
        assert calls == dict.fromkeys(calls, len(ACT_SITES) * cfg.layers)
        assert calib.ema == {}  # the integer path reads the calibration frozen: it observes nothing

    def test_no_mask_without_a_backward(self, monkeypatch):
        # constant inputs: the integer, teacher and eval forwards build no straight-through mask
        import squant.quant

        masks = []
        original = squant.quant._ste_mask

        def counting(*args):
            masks.append(1)
            return original(*args)

        monkeypatch.setattr(squant.quant, "_ste_mask", counting)
        cfg = small_cfg(rho=0.5)
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
        cfg = small_cfg(rho=0.5)
        _, plans = forward_int(cfg, init_params(cfg), tokens_for(cfg), calib=None)
        # six sites per layer read each plan's positions; each array is built once
        assert sorted(built) == ["hi"] * cfg.layers + ["lo"] * cfg.layers
        assert plans[1].hi is plans[1].hi and plans[1].lo is plans[1].lo
        np.testing.assert_array_equal(np.sort(np.concatenate([plans[1].hi, plans[1].lo])), np.arange(cfg.seq_len))

    def test_int_path_token_validation(self):
        cfg = small_cfg()
        with pytest.raises(IndexError):
            forward_int(cfg, init_params(cfg), np.array([cfg.vocab]), calib=None)


def forward_int_digest(seed: int) -> str:
    """sha256 of ``forward_int``'s logits, plans and cost counts over 8 windows of each recipe.

    Three recipes (rho 0.5 and 0, and the width-128, seq-128 model of the
    benchmark), each uncalibrated and with the calibration of one training
    pass.
    """
    digest = hashlib.sha256()
    wide = dict(dim=128, heads=4, seq_len=128)
    for recipe in (dict(rho=0.5), dict(rho=0.0), wide):
        cfg = MicroTransformerConfig(**recipe, seed=seed)
        params = init_params(cfg)
        windows = make_corpus(seed, cfg.vocab, 8 * cfg.seq_len).reshape(8, cfg.seq_len)
        trained = Calibration()
        tape = gt.Tape()
        forward_tape(tape, params_to_tape(tape, params), windows[0], cfg, quantized=True, training=True, calib=trained)
        for calib in (None, trained):
            for window in windows:
                cost = CostCounter()
                logits, plans = forward_int(cfg, params, window, calib, cost)
                digest.update(logits.tobytes())
                for plan in plans:
                    digest.update(plan.bits.tobytes())
                digest.update(f"{cost.mul_count} {cost.add_count};".encode())
    return digest.hexdigest()


# pinned: a rewrite of the integer path's arithmetic (passes, temporaries, product order) must keep these bits
FORWARD_INT_DIGESTS = {
    0: "e28843a85eabafbcddc9d942a490d8572cb5a749788fb625dc8d6840d33f5d3e",
    2: "8d26a87293ac29467289e7282d311cda7a6d1be121ad2512444eed1c24f34833",
    11: "989342f45725a6c61ab3360cad96ab01e5fd25ad05ba7fe798f11af46c5f2f9a",
}


@pytest.mark.parametrize("seed", sorted(FORWARD_INT_DIGESTS))
def test_forward_int_logits_plans_and_counts_are_pinned(seed):
    assert forward_int_digest(seed) == FORWARD_INT_DIGESTS[seed]


class TestCompiledModel:
    @pytest.mark.parametrize("dim", [32, 128])
    @pytest.mark.parametrize("rho", [0.0, 1.0, 0.5])
    def test_compiled_run_bit_identical_to_float_params(self, rho, dim):
        for seed in range(4):
            cfg = MicroTransformerConfig(dim=dim, heads=4, seq_len=dim, seed=seed, rho=rho)
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
        cfg = small_cfg(rho=0.5)
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
        assert np.isfinite(fresh_memo["l1.mlp.w2"][0]).all()  # nothing non-finite was kept

    def test_each_projection_holds_the_fake_paths_4_bit_weight(self):
        # one weight width: the compiled codes and scale are the quantizer the tape path applies
        cfg = small_cfg(rho=0.5)
        params = init_params(cfg)
        compiled = compile_int(cfg, params)
        assert set(compiled.projections) == {f"l{l}.{w}" for l in range(cfg.layers) for w in WEIGHT_NAMES}
        tape = gt.Tape(dtype=np.float32)
        fake = forward_tape(tape, params_to_tape(tape, params), tokens_for(cfg), cfg, quantized=True)
        for name, proj in compiled.projections.items():
            assert [f.name for f in fields(proj)] == ["scale", "packed"]
            assert proj.scale == fake.scales_used[name] == calibrate_scale(params[name], WEIGHT_BITS)
            codes = quantize(params[name], QuantSpec(bits=WEIGHT_BITS, scale=proj.scale))
            np.testing.assert_array_equal(proj.packed.codes, codes.T)
            assert -(2 ** (WEIGHT_BITS - 1)) <= codes.min() and codes.max() < 2 ** (WEIGHT_BITS - 1)
            np.testing.assert_array_equal(unpack_int4(proj.packed), codes.T)

    def test_compiled_arrays_are_read_only(self):
        cfg = small_cfg()
        compiled = compile_int(cfg, init_params(cfg))
        for proj in compiled.projections.values():
            for a in (proj.packed.packed, proj.packed.codes, proj.packed.lanes):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1


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
        cfg = small_cfg(rho=0.5)
        params, toks = init_params(cfg), tokens_for(cfg)
        projections = len(WEIGHT_NAMES) * cfg.layers
        first = int_run(cfg, params, toks)
        assert calls == {"pack_int4": projections, "weight quantize": projections}
        calls.update(dict.fromkeys(calls, 0))
        assert int_run(cfg, params, toks) == first
        assert calls == {"pack_int4": 0, "weight quantize": 0}
        assert len(fresh_memo) == projections

    def test_equal_values_in_a_new_dict_hit(self, fresh_memo, monkeypatch):
        cfg = small_cfg()
        params, toks = init_params(cfg), tokens_for(cfg)
        first = int_run(cfg, params, toks)
        calls = count_weight_compiles(monkeypatch)
        assert int_run(cfg, copy.deepcopy(params), toks) == first
        assert int_run(cfg, init_params(cfg), toks) == first
        assert calls == {"pack_int4": 0, "weight quantize": 0}

    def test_in_place_edit_recompiles_that_weight_only(self, fresh_memo, monkeypatch):
        cfg = small_cfg(rho=0.5)
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
        cfg = small_cfg()
        params, toks = init_params(cfg), tokens_for(cfg)
        params["l0.mlp.w1"][1, 4] = 0.0
        zero = int_run(cfg, params, toks)
        calls = count_weight_compiles(monkeypatch)
        params["l0.mlp.w1"][1, 4] = -0.0  # equal as a float, different bits
        assert int_run(cfg, params, toks) == zero
        assert calls == {"pack_int4": 1, "weight quantize": 1}
        assert np.signbit(fresh_memo["l0.mlp.w1"][0][1, 4])

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
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
    def test_edits_and_resets_match_a_fresh_compile(self, fresh_memo, steps):
        cfg = small_cfg(rho=0.5)
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


def grouped_linear(codes, spec, proj, cost):
    """The grouped formulation of an integer projection, as a reference.

    Gather each group's codes, run the group's kernel (packed for 4-bit
    tokens, byte for 8-bit ones), scale by alpha_w * alpha_group, then
    scatter the rows back to token order.
    """
    plan = TokenBitPlan(spec.bits[:, 0])
    parts = []
    for rows, bits in ((plan.hi, 8), (plan.lo, 4)):
        if not rows.size:
            parts.append(np.empty((0, proj.packed.logical_rows), dtype=np.float32))
            continue
        group = codes[rows].T  # [K, group tokens]
        if bits == 4:
            acc = gemm_i4_packed(proj.packed, group, cost)
        else:
            acc = gemm_i8(proj.packed.codes, group, cost)
        scale = spec.scale[rows[0], 0]  # the group's one scale
        parts.append((acc.astype(np.float32) * (np.float32(proj.scale) * np.float32(scale))).T)
    return ref.scatter_tokens(*parts, plan)


class TestTokenOrderOracle:
    """The token-order integer projection against the grouped formulation, byte for byte."""

    @pytest.mark.parametrize("rho", [0.0, 1.0, 0.5])
    def test_forward_int_matches_grouped_projection(self, rho, monkeypatch):
        import squant.model

        for seed in range(3):
            cfg = small_cfg(rho=rho, seed=seed)
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

    def test_projection_matches_grouped_projection(self):
        from squant.model import _compile_projection, _linear_int

        rng = substream(9, "oracle-linear-w4")
        for case in range(60):
            n, k, m = int(rng.integers(1, 20)), int(rng.integers(1, 24)), int(rng.integers(1, 24))
            rho = float(rng.choice([0.0, 1.0, rng.uniform()]))  # rho 0 and 1 leave one group empty
            plan = assign_bits(rng.uniform(size=n), rho)
            x = rng.normal(size=(n, k)) * rng.choice([0.1, 1.0, 30.0])
            spec = group_quantize(x, plan, group_scale(x, plan.hi, 8), group_scale(x, plan.lo, 4))
            codes = quantize(x, spec)
            proj = _compile_projection("w", rng.normal(size=(k, m)))
            got_cost, want_cost = CostCounter(), CostCounter()
            got = _linear_int(codes, spec, proj, got_cost)
            want = grouped_linear(codes, spec, proj, want_cost)
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

        cfg = small_cfg(rho=0.5)
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
