"""Quantizer contract: scalar oracle, round-trip bound, idempotence, STE, the projection node."""

import math

import numpy as np
import pytest

from squant import gradtape as gt
from squant.quant import (
    EmaState,
    QuantSpec,
    calibrate_scale,
    dequantize,
    fake_quant,
    linear,
    quantize,
    round_half_away,
)
from squant.seeding import substream


def quantize_scalar(x: float, scale: float, bits: int) -> int:
    """Reference for one value, spelled out step by step."""
    t = x / scale
    r = math.floor(abs(t) + 0.5)
    r = r if t >= 0 else -r
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return int(min(max(r, lo), hi))


class TestRounding:
    def test_ties_go_away_from_zero(self):
        t = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
        np.testing.assert_array_equal(round_half_away(t), [1, -1, 2, -2, 3, -3])

    def test_plain_cases(self):
        t = np.array([0.49, -0.49, 1.2, -1.7, 0.0])
        np.testing.assert_array_equal(round_half_away(t), [0, 0, 1, -2, 0])

    def test_matches_sign_times_floor_oracle(self):
        def oracle(t):
            return np.sign(t) * np.floor(np.abs(t) + 0.5)

        halves = np.arange(-8, 8) + 0.5
        big = 2.0**52
        t = np.concatenate([
            halves,
            np.nextafter(halves, np.inf),
            np.nextafter(halves, -np.inf),
            [0.0, -0.0, np.nextafter(0.5, 0.0), -np.nextafter(0.5, 0.0)],
            [big - 1.5, big - 0.5, big, big + 1.0, 2 * big + 2.0],
            -np.array([big - 1.5, big - 0.5, big, big + 1.0, 2 * big + 2.0]),
        ])
        for case in (t, t.astype(np.float32), np.array(2.5), np.array(-0.5), np.empty(0), np.empty((0, 3))):
            before = case.copy()
            got, want = round_half_away(case), oracle(case)
            assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert case.tobytes() == before.tobytes()  # the input is not written to


class TestCalibration:
    def test_worked_example(self):
        x = np.array([-1.0, 0.5, 2.0])
        assert calibrate_scale(x, 4) == pytest.approx(2.0 / 7.0)

    def test_all_zero_guard(self):
        assert calibrate_scale(np.zeros(5), 8) == 1.0

    def test_exact_fit(self):
        assert calibrate_scale(np.array([127.0, -3.0]), 8) == 1.0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            calibrate_scale(np.ones(3), 6)

    def test_ema_path(self):
        ema = EmaState(momentum=0.95)
        calibrate_scale(np.array([7.0]), 4, ema)  # first touch seeds the EMA
        assert ema.running_max == 7.0
        s = calibrate_scale(np.array([14.0]), 4, ema)
        assert ema.running_max == pytest.approx(0.95 * 7.0 + 0.05 * 14.0)
        assert s == pytest.approx(ema.running_max / 7.0)

    def test_ema_state_roundtrip(self):
        ema = EmaState()
        ema.update(3.0)
        clone = EmaState.from_state_dict(ema.state_dict())
        assert clone.running_max == ema.running_max
        assert clone.initialized


class TestQuantizeDequantize:
    def test_worked_example(self):
        x = np.array([-1.0, 0.5, 2.0])
        spec = QuantSpec(bits=4, scale=2.0 / 7.0)
        q = quantize(x, spec)
        np.testing.assert_array_equal(q.ints, [-4, 2, 7])
        np.testing.assert_allclose(
            dequantize(q), [-1.142857, 0.571429, 2.0], atol=1e-6
        )

    def test_integer_identity(self):
        x = np.arange(-128, 128, dtype=np.float64)
        q = quantize(x, QuantSpec(bits=8, scale=1.0))
        np.testing.assert_array_equal(q.ints, x.astype(np.int8))

    def test_saturation(self):
        spec = QuantSpec(bits=4, scale=0.1)
        assert quantize(np.array([1000 * 0.1]), spec).ints[0] == 7
        assert quantize(np.array([-1000 * 0.1]), spec).ints[0] == -8

    def test_matches_scalar_oracle(self):
        rng = substream(11, "quant-oracle")
        for bits in (4, 8):
            for _ in range(20):
                x = rng.normal(scale=rng.uniform(0.1, 10.0), size=37)
                spec = QuantSpec(bits=bits, scale=calibrate_scale(x, bits))
                got = quantize(x, spec).ints
                want = [quantize_scalar(v, spec.scale, bits) for v in x]
                np.testing.assert_array_equal(got, want)

    def test_roundtrip_bound_and_range(self):
        rng = substream(11, "quant-prop")
        for bits in (4, 8):
            lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
            for _ in range(25):
                x = rng.uniform(-5.0, 5.0, size=400)
                scale = calibrate_scale(x, bits)
                q = quantize(x, QuantSpec(bits=bits, scale=scale))
                assert q.ints.min() >= lo and q.ints.max() <= hi
                err = np.abs(dequantize(q, dtype=np.float64) - x)
                # in-range values round to within half a step
                inside = np.abs(x) <= hi * scale
                assert np.all(err[inside] <= scale / 2 + 1e-12)

    def test_idempotence_exact(self):
        rng = substream(11, "quant-idem")
        for bits in (4, 8):
            x = rng.normal(size=1000)
            spec = QuantSpec(bits=bits, scale=calibrate_scale(x, bits))
            q1 = quantize(x, spec)
            q2 = quantize(dequantize(q1), spec)
            np.testing.assert_array_equal(q1.ints, q2.ints)

    def test_zero_ints_dequantize_to_zero(self):
        q = quantize(np.zeros(8), QuantSpec(bits=8, scale=0.3))
        assert not dequantize(q).any()

    def test_out_of_range_ints_rejected(self):
        from squant.quant import QuantizedTensor

        with pytest.raises(ValueError):
            QuantizedTensor(np.array([9], dtype=np.int8), 1.0, 4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=3, scale=1.0)
        with pytest.raises(ValueError):
            QuantSpec(bits=4, scale=0.0)


class TestFakeQuant:
    def test_forward_is_quant_dequant(self):
        x = substream(11, "fq-fwd").normal(size=(4, 8))
        spec = QuantSpec(bits=4, scale=calibrate_scale(x, 4))
        tape = gt.Tape(dtype=np.float64)
        y = fake_quant(tape.parameter(x), spec)
        np.testing.assert_array_equal(y.data, dequantize(quantize(x, spec), np.float64))

    def test_ste_mask_in_and_out_of_range(self):
        spec = QuantSpec(bits=4, scale=1.0)
        # 7.4 rounds to 7 (in range, passes), 7.6 rounds to 8 (clipped, blocked)
        x = np.array([0.0, 3.2, 7.4, 7.6, -8.4, -8.6, 100.0])
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        tape.backward(gt.sum_all(fake_quant(t, spec)))
        np.testing.assert_array_equal(t.grad, [1, 1, 1, 0, 1, 0, 0])

    def test_identity_region_gradient_one(self):
        spec = QuantSpec(bits=8, scale=1.0)
        x = np.arange(-128.0, 128.0)
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        y = fake_quant(t, spec)
        np.testing.assert_array_equal(y.data, x)
        tape.backward(gt.sum_all(y))
        np.testing.assert_array_equal(t.grad, np.ones_like(x))

    def test_grad_scales_with_downstream(self):
        x = np.array([0.3, 2.0, -1.4])
        spec = QuantSpec(bits=8, scale=calibrate_scale(x, 8))
        w = np.array([2.0, -3.0, 0.5])
        tape = gt.Tape(dtype=np.float64)
        t = tape.parameter(x)
        tape.backward(gt.sum_all(gt.mul(fake_quant(t, spec), tape.parameter(w))))
        np.testing.assert_array_equal(t.grad, w)  # mask all ones here

    def test_end_to_end_matches_clip_surrogate_fd(self):
        # loss grad through fake_quant vs FD of the clip-only network
        rng = substream(11, "fq-fd")
        x0 = rng.uniform(0.3, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12)
        w = rng.normal(size=12)
        scale = calibrate_scale(x0, 8)
        spec = QuantSpec(bits=8, scale=scale)

        def loss_with(surrogate, x):
            tape = gt.Tape(dtype=np.float64)
            t = tape.parameter(x)
            y = fake_quant(t, spec, surrogate=surrogate)
            out = gt.sum_all(gt.mul(gt.mul(y, y), tape.parameter(w)))
            return tape, t, out

        tape, t, out = loss_with(False, x0)
        tape.backward(out)
        ste = t.grad

        h = 1e-6
        fd = np.zeros_like(x0)
        for i in range(x0.size):
            for sign in (1.0, -1.0):
                bumped = x0.copy()
                bumped[i] += sign * h
                _, _, o = loss_with(True, bumped)
                fd[i] += sign * o.item()
        fd /= 2 * h
        np.testing.assert_allclose(ste, fd, rtol=2e-2)

    def test_surrogate_forward_clips(self):
        spec = QuantSpec(bits=4, scale=0.5)
        tape = gt.Tape(dtype=np.float64)
        y = fake_quant(tape.parameter(np.array([-100.0, 0.3, 100.0])), spec, surrogate=True)
        np.testing.assert_allclose(y.data, [-4.0, 0.3, 3.5])


def projection_chain(x, w, b, q=None, surrogate=False):
    """A projection as three nodes: fake-quant weight, matmul, bias add."""
    y = gt.matmul(x, w if q is None else fake_quant(w, q, surrogate))
    return x.tape.record(y.array + b.array, (y, b), lambda g: (g, g.sum(axis=0)), name="add_bias")


def projection_operands(name):
    rng = substream(11, name)
    return rng.normal(size=(6, 8)), rng.normal(size=(8, 5)) * 0.4, rng.normal(size=(5,)), rng.normal(size=(6, 5))


class TestLinear:
    @staticmethod
    def run(build, x0, w0, b0, c, constant_w=False):
        tape = gt.Tape(dtype=np.float32)
        x, b = tape.parameter(x0), tape.parameter(b0)
        w = tape.constant(w0) if constant_w else tape.parameter(w0)
        y = build(x, w, b)
        tape.backward(gt.sum_all(gt.mul(y, tape.constant(c))))  # c has both signs: masked entries see -g
        return y.array, x.grad, w.grad, b.grad

    @pytest.mark.parametrize(
        "bits, surrogate, constant_w",
        [
            (4, False, False),
            (8, False, False),
            (4, False, True),
            (8, False, True),
            (4, True, False),
            (8, True, False),
            (None, False, False),
        ],
    )
    def test_bits_equal_the_three_node_chain(self, bits, surrogate, constant_w, monkeypatch):
        import squant.quant as quant_mod

        x0, w0, b0, c = projection_operands("linear-bits")
        # a scale below the max-abs one clips the largest weights, so the mask has zeros
        q = None if bits is None else QuantSpec(bits=bits, scale=0.6 * calibrate_scale(w0.astype(np.float32), bits))
        masks = []
        ste_mask = quant_mod._ste_mask
        monkeypatch.setattr(quant_mod, "_ste_mask", lambda *a: masks.append(1) or ste_mask(*a))
        got = self.run(lambda x, w, b: linear(x, w, b, q, surrogate), x0, w0, b0, c, constant_w=constant_w)
        built = len(masks)
        want = self.run(lambda x, w, b: projection_chain(x, w, b, q, surrogate), x0, w0, b0, c, constant_w=constant_w)
        for g, r in zip(got, want):
            if r is None:
                assert g is None
            else:
                assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()
        assert got[2] is None if constant_w else got[2] is not None
        if q is not None and not constant_w:
            assert (got[2] == 0).any()  # some weights were clipped
        if q is not None and not surrogate:
            assert built == (0 if constant_w else 1)

    @pytest.mark.parametrize("surrogate", [False, True])
    def test_gradients_match_finite_differences(self, surrogate):
        # float64: the float projection (q=None) and the clip-only surrogate
        x0, w0, b0, c = projection_operands("linear-fd")
        q = QuantSpec(bits=4, scale=0.6 * calibrate_scale(w0, 4)) if surrogate else None
        if surrogate:
            lo, hi = q.qmin * q.scale, q.qmax * q.scale
            assert np.minimum(np.abs(w0 - lo), np.abs(w0 - hi)).min() > 1e-3  # no weight on a kink
            assert ((w0 < lo) | (w0 > hi)).any()

        def loss(x, w, b):
            tape = gt.Tape(dtype=np.float64)
            ts = [tape.parameter(a) for a in (x, w, b)]
            y = linear(*ts, q, surrogate)
            out = gt.sum_all(gt.mul(gt.mul(y, y), tape.constant(c)))
            return tape, ts, out

        tape, ts, out = loss(x0, w0, b0)
        tape.backward(out)
        h = 1e-6
        for i, t in enumerate(ts):
            fd = np.zeros_like(t.array)
            for j in range(fd.size):
                for sign in (1.0, -1.0):
                    bumped = [a.copy() for a in (x0, w0, b0)]
                    bumped[i].reshape(-1)[j] += sign * h
                    fd.reshape(-1)[j] += sign * loss(*bumped)[2].item()
            np.testing.assert_allclose(t.grad, fd / (2 * h), rtol=1e-6, atol=1e-8)

    def test_shapes_validated(self):
        tape = gt.Tape()
        x, w = tape.parameter(np.ones((3, 4))), tape.parameter(np.ones((4, 2)))
        for bad_w, bad_b in (((5, 2), (2,)), ((4, 2), (3,)), ((4, 2), (1, 2))):
            with pytest.raises(ValueError, match="linear needs"):
                linear(x, tape.parameter(np.ones(bad_w)), tape.parameter(np.ones(bad_b)))
        with pytest.raises(ValueError, match="linear needs"):
            linear(tape.parameter(np.ones(4)), w, tape.parameter(np.ones(2)))
