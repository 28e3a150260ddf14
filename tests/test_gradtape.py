"""Gradient checks for the tape: every op against central finite differences.

FD oracles run on float64 tapes with h = 1e-6 and compare at rtol 1e-6.
"""

import numpy as np
import pytest

from squant import gradtape as gt
from squant.seeding import substream


def fd_grad(build, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued tape builder.

    ``build(tape, x_tensor)`` must return the scalar output tensor.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * h
            tape = gt.Tape(dtype=np.float64)
            y = build(tape, tape.parameter(bumped.reshape(x0.shape)))
            out.reshape(-1)[i] += sign * y.item()
    return out / (2.0 * h)


def tape_grad(build, x0: np.ndarray) -> np.ndarray:
    tape = gt.Tape(dtype=np.float64)
    x = tape.parameter(np.asarray(x0, dtype=np.float64))
    y = build(tape, x)
    tape.backward(y)
    return x.grad


def check(build, x0, rtol=1e-6, atol=1e-8):
    got = tape_grad(build, x0)
    want = fd_grad(build, x0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


class TestElementwise:
    def test_add_and_scalar(self):
        rng = substream(7, "gt-add")
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))

        def build(tape, x):
            return gt.sum_all(gt.add_scalar(gt.add(x, tape.parameter(b)), 1.5))

        check(build, a)

    def test_sub_mul_div(self):
        rng = substream(7, "gt-smd")
        a = rng.normal(size=(2, 5))
        b = rng.normal(size=(2, 5)) + 3.0  # keep the divisor away from zero

        def build(tape, x):
            other = tape.parameter(b)
            return gt.sum_all(gt.div(gt.mul(gt.add(x, gt.mul_scalar(other, -1.0)), x), other))

        check(build, a)

    def test_mul_scalar_neg(self):
        a = substream(7, "gt-ms").normal(size=(4,))
        check(lambda tape, x: gt.sum_all(gt.neg(gt.mul_scalar(x, -2.5))), a)

    def test_log_exp_sqrt(self):
        a = substream(7, "gt-les").uniform(0.5, 2.0, size=(3, 3))

        def build(tape, x):
            return gt.sum_all(gt.mul(gt.log(x), gt.sqrt(x)))

        check(build, a)

    def test_gelu(self):
        a = substream(7, "gt-gelu").normal(size=(64,)) * 2.0
        check(lambda tape, x: gt.sum_all(gt.gelu(x)), a)


class TestReductions:
    def test_variance_all(self):  # over all trailing elements, per leading index
        a = substream(7, "gt-var").normal(size=(3, 6, 2))
        w = substream(7, "gt-varw").normal(size=(3,))
        check(lambda tape, x: gt.sum_all(gt.mul(gt.variance_per(x), tape.constant(w))), a)

    def test_variance_value_is_population(self):
        a = np.array([[1.0, 3.0], [2.0, 2.0]])
        tape = gt.Tape(dtype=np.float64)
        v = gt.variance_per(tape.parameter(a))
        np.testing.assert_array_equal(v.data, [1.0, 0.0])  # population, not sample (2.0)

    def test_sum_per_index(self):
        a = substream(7, "gt-sumper").normal(size=(4, 3, 2))
        w = substream(7, "gt-sumperw").normal(size=(4,))
        check(lambda tape, x: gt.sum_all(gt.mul(gt.sum_per(x), tape.constant(w))), a)
        np.testing.assert_allclose(gt.sum_per(gt.Tape(np.float64).parameter(a)).data, a.sum(axis=(1, 2)))

    def test_sum_in_order_is_a_chain_of_adds(self):
        rng = substream(7, "gt-sumord")
        check(lambda tape, x: gt.sum_in_order(gt.mul(x, x)), rng.normal(size=(5,)))
        mismatched = 0
        for _ in range(200):  # pairwise summation rounds differently at these lengths
            a = rng.normal(size=(int(rng.integers(8, 17)),)).astype(np.float32)
            tape = gt.Tape()
            chain = tape.parameter(a[:1].reshape(()))
            for v in a[1:]:
                chain = gt.add(chain, tape.parameter(np.asarray(v)))
            assert gt.sum_in_order(tape.parameter(a)).item() == chain.item()
            mismatched += a.sum() != chain.item()
        assert mismatched > 0

    def test_clamp_max_grad_and_ceiling(self):
        a = np.array([0.5, -1.0, 2.0, 3.0])
        ceiling = np.array([1.0, -1.0, 1.5, np.inf])
        check(lambda tape, x: gt.sum_all(gt.mul(gt.clamp_max(x, ceiling), tape.constant(a + 1.0))), a)
        tape = gt.Tape(dtype=np.float64)
        x = tape.parameter(a)
        y = gt.clamp_max(x, ceiling)
        tape.backward(gt.sum_all(gt.mul(y, tape.constant(np.full(4, -2.0)))))
        np.testing.assert_array_equal(y.data, [0.5, -1.0, 1.5, 3.0])
        np.testing.assert_array_equal(x.grad, [-2.0, 0.0, 0.0, -2.0])  # zero at and above the ceiling
        with pytest.raises(ValueError, match="ceiling shape"):
            gt.clamp_max(x, ceiling[:2])


class TestLinAlg:
    def test_matmul_both_sides(self):
        rng = substream(7, "gt-mm")
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        def build_a(tape, x):
            return gt.sum_all(gt.matmul(x, tape.parameter(b)))

        check(build_a, a)

        def build_b(tape, x):
            return gt.sum_all(gt.matmul(tape.parameter(a), x))

        check(build_b, b)

    def test_transpose(self):
        a = substream(7, "gt-tr").normal(size=(3, 5))

        def build(tape, x):
            return gt.sum_all(gt.mul(gt.transpose(x), tape.parameter(a.T * 2.0)))

        check(build, a)

    def test_slice_concat_roundtrip(self):  # heads are column slices, merged by concatenation
        a = substream(7, "gt-heads").normal(size=(4, 6))
        w = substream(7, "gt-headsw").normal(size=(3, 4, 2))

        def build_split(tape, x):
            return gt.sum_all(gt.mul(gt.split_heads(x, 3), tape.constant(w)))

        def build_merge(tape, x):
            back = gt.merge_heads(x)
            return gt.sum_all(gt.mul(back, back))

        check(build_split, a)
        check(build_merge, w)
        tape = gt.Tape(dtype=np.float64)
        heads = gt.split_heads(tape.parameter(a), 3)
        np.testing.assert_array_equal(heads.data[1], a[:, 2:4])  # head h owns columns [2h, 2h+2)
        np.testing.assert_array_equal(gt.merge_heads(heads).data, a)
        with pytest.raises(ValueError, match="divisible"):
            gt.split_heads(tape.parameter(a), 4)

    def test_split_heads_gradient_is_c_contiguous(self):
        tape = gt.Tape()
        x = tape.parameter(np.ones((5, 4), dtype=np.float32))
        tape.backward(gt.sum_all(gt.transpose(gt.split_heads(x, 2))))
        assert x.grad.flags.c_contiguous

    def test_concat_leading_axis(self):
        rng = substream(7, "gt-cat")
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
        w = np.arange(15.0).reshape(5, 3)
        check(lambda tape, x: gt.sum_all(gt.mul(gt.concat([x, tape.constant(b), x]), tape.constant(w))), a)
        tape = gt.Tape(dtype=np.float64)
        joined = gt.concat([tape.parameter(a), tape.parameter(b)])
        np.testing.assert_array_equal(joined.data, np.concatenate([a, b]))
        with pytest.raises(ValueError, match="trailing"):
            gt.concat([tape.parameter(a), tape.parameter(np.ones((2, 2)))])

    def test_gather_rows_scatter_adds(self):
        table = substream(7, "gt-gr").normal(size=(5, 3))
        ids = np.array([1, 3, 1, 0])

        def build(tape, t):
            rows = gt.gather_rows(t, ids)
            return gt.sum_all(gt.mul(rows, rows))

        check(build, table)
        # duplicate id 1 must accumulate twice
        g = tape_grad(build, table)
        np.testing.assert_allclose(g[1], 4.0 * table[1], rtol=1e-12)

    def test_gather_rejects_bad_ids(self):
        tape = gt.Tape()
        t = tape.parameter(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            gt.gather_rows(t, np.array([0, 3]))


class TestBatchedOps:
    def test_matmul_transpose_grads(self):
        rng = substream(7, "gt-bmm")
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 3, 4))

        def build_a(tape, x):
            scores = gt.matmul(x, gt.transpose(tape.parameter(b)))
            return gt.sum_all(gt.mul(scores, tape.constant(np.full((2, 3, 3), 0.5))))

        check(build_a, a)
        check(lambda tape, x: gt.sum_all(gt.matmul(tape.parameter(a), gt.transpose(x))), b)
        tape = gt.Tape(dtype=np.float64)
        with pytest.raises(ValueError, match="batch"):
            gt.matmul(tape.parameter(a), tape.parameter(b[0].T))

    def test_causal_softmax_grad(self):
        a = substream(7, "gt-bsm").normal(size=(3, 4, 4))
        w = substream(7, "gt-bsmw").normal(size=(3, 4, 4))
        check(lambda tape, x: gt.sum_all(gt.mul(gt.softmax_rows(x, causal=True), tape.constant(w))), a)
        y = gt.softmax_rows(gt.Tape(np.float64).parameter(a), causal=True)
        for h in range(3):
            np.testing.assert_array_equal(y.data[h], gt.softmax_forward(a[h], causal=True))

    @pytest.mark.parametrize("heads,t_len,dh", [(2, 32, 16), (4, 128, 32)])  # default and width-128 models
    def test_batched_products_bit_identical_to_per_head(self, heads, t_len, dh):
        rng = substream(7, f"gt-pin-{heads}")
        q, k, v = (rng.normal(size=(t_len, heads * dh)).astype(np.float32) for _ in range(3))
        g_ctx = rng.normal(size=(t_len, heads * dh)).astype(np.float32)
        g_probs = rng.normal(size=(heads, t_len, t_len)).astype(np.float32)
        tape = gt.Tape()
        qn, kn, vn = (tape.parameter(a) for a in (q, k, v))
        qh, kh, vh = (gt.split_heads(n, heads) for n in (qn, kn, vn))
        probs = gt.softmax_rows(gt.matmul(qh, gt.transpose(kh)), causal=True)
        ctx = gt.merge_heads(gt.matmul(probs, vh))
        loss = gt.add(gt.sum_all(gt.mul(ctx, tape.constant(g_ctx))), gt.sum_all(gt.mul(probs, tape.constant(g_probs))))
        tape.backward(loss)
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            qb, kb, vb = q[:, cols].copy(), k[:, cols].copy(), v[:, cols].copy()
            kt = kb.T.copy()
            scores = qb @ kt
            p = gt.softmax_forward(scores, causal=True).astype(np.float32)
            np.testing.assert_array_equal(probs.data[h], p)
            np.testing.assert_array_equal(ctx.data[:, cols], p @ vb)
            gc = g_ctx[:, cols].copy()
            np.testing.assert_array_equal(vn.grad[:, cols], p.T @ gc)
            gp = gc @ vb.T + g_probs[h]
            gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p
            np.testing.assert_array_equal(qn.grad[:, cols], gs @ kt.T)
            np.testing.assert_array_equal(kn.grad[:, cols], (qb.T @ gs).T)


def chain_attention(q, k, heads, scale):
    """The op chain ``gt.attention`` replaces."""
    scores = gt.matmul(gt.split_heads(q, heads), gt.transpose(gt.split_heads(k, heads)))
    return gt.softmax_rows(gt.mul_scalar(scores, scale), causal=True)


def chain_attend(probs, v):
    """The op chain ``gt.attend`` replaces."""
    return gt.merge_heads(gt.matmul(probs, gt.split_heads(v, probs.shape[0])))


def same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestAttentionNodes:
    """``attention`` and ``attend`` against the op chains they replace, byte for byte."""

    def run(self, attention, attend, arrays, heads, dtype):
        q, k, v, w_probs, w_ctx = arrays
        tape = gt.Tape(dtype=dtype)
        qn, kn, vn = (tape.parameter(a) for a in (q, k, v))
        probs = attention(qn, kn, heads, 1.0 / np.sqrt(q.shape[1] // heads))
        ctx = attend(probs, vn)
        # probs gets two gradients, as in the model: from its context and from a loss on the maps
        loss = gt.add(gt.sum_all(gt.mul(ctx, tape.constant(w_ctx))), gt.sum_all(gt.mul(probs, tape.constant(w_probs))))
        tape.backward(loss)
        return probs.array, ctx.array, qn.grad, kn.grad, vn.grad

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads,t_len,dh", [(1, 1, 4), (1, 6, 8), (2, 1, 4), (2, 32, 16), (4, 9, 3)])
    def test_bits_equal_the_op_chain(self, dtype, heads, t_len, dh, sign):
        rng = substream(7, f"gt-attn-{heads}-{t_len}")
        d = heads * dh
        q, k, v = (rng.normal(size=(t_len, d)).astype(dtype) for _ in range(3))
        w_probs = (sign * rng.normal(size=(heads, t_len, t_len))).astype(dtype)  # mixed signs, flipped by sign
        w_ctx = (sign * rng.normal(size=(t_len, d))).astype(dtype)
        arrays = (q, k, v, w_probs, w_ctx)
        fused = self.run(gt.attention, gt.attend, arrays, heads, dtype)
        chain = self.run(chain_attention, chain_attend, arrays, heads, dtype)
        for a, b in zip(fused, chain):
            same_bytes(a, b)

    def test_one_node_each(self):
        tape = gt.Tape()
        q, k, v = (tape.parameter(np.ones((3, 4), np.float32)) for _ in range(3))
        gt.attend(gt.attention(q, k, 2, 0.5), v)
        assert [n.name for n in tape.nodes[3:]] == ["attention", "attend"]

    def test_gradients_match_finite_differences(self):
        rng = substream(7, "gt-attn-fd")
        q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
        w = rng.normal(size=(3, 5, 5))
        probs = rng.uniform(size=(3, 5, 5))
        wc = rng.normal(size=(5, 6))

        def loss(tape, node):
            return gt.sum_all(gt.mul(node, tape.constant(w if node.shape == w.shape else wc)))

        check(lambda tape, x: loss(tape, gt.attention(x, tape.constant(k), 3, 0.4)), q)
        check(lambda tape, x: loss(tape, gt.attention(tape.constant(q), x, 3, 0.4)), k)
        check(lambda tape, x: loss(tape, gt.attend(x, tape.constant(v))), probs)
        check(lambda tape, x: loss(tape, gt.attend(tape.constant(probs), x)), v)

    def test_shapes_validated(self):
        tape = gt.Tape()
        a = tape.parameter(np.ones((3, 4), np.float32))
        with pytest.raises(ValueError, match="one shape"):
            gt.attention(a, tape.parameter(np.ones((3, 2), np.float32)), 2, 1.0)
        with pytest.raises(ValueError, match="divisible"):
            gt.attention(a, a, 3, 1.0)
        with pytest.raises(ValueError, match="attend"):
            gt.attend(tape.parameter(np.ones((2, 3, 4), np.float32)), a)


class TestFusedOps:
    def test_softmax_rows_grad(self):
        a = substream(7, "gt-sm").normal(size=(4, 5))
        w = substream(7, "gt-smw").normal(size=(4, 5))

        def build(tape, x):
            return gt.sum_all(gt.mul(gt.softmax_rows(x), tape.parameter(w)))

        check(build, a)

    def test_softmax_known_value(self):
        tape = gt.Tape(dtype=np.float64)
        y = gt.softmax_rows(tape.parameter(np.array([[0.0, np.log(3.0)]])))
        np.testing.assert_allclose(y.data, [[0.25, 0.75]], rtol=1e-12)

    def test_softmax_causal_masks_strict_upper(self):
        a = substream(7, "gt-smc").normal(size=(4, 4))
        tape = gt.Tape(dtype=np.float64)
        y = gt.softmax_rows(tape.parameter(a), causal=True)
        out = y.data
        assert np.all(out[np.triu_indices(4, k=1)] == 0.0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), rtol=1e-12)

        w = substream(7, "gt-smcw").normal(size=(4, 4))

        def build(tape, x):
            return gt.sum_all(gt.mul(gt.softmax_rows(x, causal=True), tape.parameter(w)))

        check(build, a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_len", [1, 2, 32, 128])
    def test_causal_softmax_bits_of_the_per_call_mask(self, t_len, dtype):
        def per_call_mask(x):  # the formula that built a fresh mask on every call
            mask = np.tril(np.ones(x.shape[-2:], dtype=bool))
            shifted = np.where(mask, x, -np.inf)
            e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
            e = np.where(mask, e, 0.0)
            return e / e.sum(axis=-1, keepdims=True)

        x = (substream(7, f"gt-mask-{t_len}").normal(size=(3, t_len, t_len)) * 4.0).astype(dtype)
        for _ in range(2):  # a fresh mask, then the one kept for this length
            got = gt.softmax_forward(x, causal=True)
            want = per_call_mask(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        mask = gt._causal_mask(t_len, t_len)
        assert mask is gt._causal_mask(t_len, t_len)
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = False

    def test_layernorm_all_three_inputs(self):
        rng = substream(7, "gt-ln")
        x = rng.normal(size=(4, 6))
        gain = rng.normal(size=(6,)) + 1.0
        bias = rng.normal(size=(6,))
        w = rng.normal(size=(4, 6))

        def weighted(tape, out):
            return gt.sum_all(gt.mul(out, tape.parameter(w)))

        def build_x(tape, t):
            return weighted(tape, gt.layernorm(t, tape.parameter(gain), tape.parameter(bias)))

        check(build_x, x, rtol=5e-6)

        def build_gain(tape, t):
            return weighted(tape, gt.layernorm(tape.parameter(x), t, tape.parameter(bias)))

        check(build_gain, gain, rtol=5e-6)

        def build_bias(tape, t):
            return weighted(tape, gt.layernorm(tape.parameter(x), tape.parameter(gain), t))

        check(build_bias, bias, rtol=5e-6)

    def test_layernorm_known_value(self):
        tape = gt.Tape(dtype=np.float64)
        x = tape.parameter(np.array([[1.0, 3.0]]))
        out = gt.layernorm(x, tape.parameter(np.ones(2)), tape.parameter(np.zeros(2)), eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], rtol=1e-12)

    def test_cross_entropy_grad_and_value(self):
        rng = substream(7, "gt-ce")
        logits = rng.normal(size=(5, 8))
        targets = rng.integers(0, 8, size=5)
        check(lambda tape, x: gt.cross_entropy(x, targets), logits)

        tape = gt.Tape(dtype=np.float64)
        uniform = tape.parameter(np.zeros((3, 16)))
        ce = gt.cross_entropy(uniform, np.array([0, 5, 15]))
        assert ce.item() == pytest.approx(np.log(16.0), rel=1e-12)

    def test_kl_value_against_closed_form(self):
        # teacher [0, ln 3] -> (.25, .75); student uniform -> (.5, .5)
        tape = gt.Tape(dtype=np.float64)
        student = tape.parameter(np.zeros((1, 2)))
        kl = gt.kl_divergence(student, np.array([[0.0, np.log(3.0)]]), tau=1.0)
        want = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
        assert kl.item() == pytest.approx(want, rel=1e-12)
        assert kl.item() == pytest.approx(0.13081203594113694, rel=1e-10)

    def test_kl_grad_student_and_teacher(self):
        rng = substream(7, "gt-kl")
        s = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 6))
        for tau in (1.0, 2.0, 3.5):

            def build_s(tape, x, tau=tau):
                return gt.kl_divergence(x, t, tau=tau)

            check(build_s, s)

    def test_kl_zero_when_identical(self):
        tape = gt.Tape(dtype=np.float64)
        logits = substream(7, "gt-kl0").normal(size=(3, 4))
        kl = gt.kl_divergence(tape.parameter(logits), logits, tau=2.0)
        assert abs(kl.item()) < 1e-12


class TestTapeMechanics:
    def test_rejects_nonfinite(self):
        tape = gt.Tape()
        with pytest.raises(ValueError, match="non-finite"):
            tape.parameter(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            tape.parameter(np.array([np.inf]))

    def test_rejects_cross_tape_mixing(self):
        t1, t2 = gt.Tape(), gt.Tape()
        a = t1.parameter(np.ones((2, 2)))
        b = t2.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="different tapes"):
            gt.add(a, b)

    def test_backward_needs_scalar_root(self):
        tape = gt.Tape()
        x = tape.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(x)

    def test_constants_get_no_grad(self):
        tape = gt.Tape(dtype=np.float64)
        x = tape.parameter(np.array([2.0]))
        c = tape.constant(np.array([3.0]))
        y = gt.sum_all(gt.mul(x, c))
        tape.backward(y)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [3.0])

    def test_fanout_accumulates(self):
        tape = gt.Tape(dtype=np.float64)
        x = tape.parameter(np.array([3.0]))
        y = gt.sum_all(gt.add(gt.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_deterministic(self):
        rng = substream(7, "gt-det")
        a = rng.normal(size=(6, 6))

        def run():
            tape = gt.Tape()
            x = tape.parameter(a)
            y = gt.cross_entropy(gt.matmul(gt.gelu(x), x), np.arange(6) % 6)
            tape.backward(y)
            return x.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1, g2)

    def test_constants_fold_and_stay_off_the_tape(self):
        tape = gt.Tape(dtype=np.float64)
        c = gt.mul_scalar(gt.add(tape.constant(np.ones(2)), tape.constant(np.ones(2))), 3.0)
        assert c.constant and c.parents == () and tape.nodes == []
        np.testing.assert_array_equal(c.data, [6.0, 6.0])
        x = tape.parameter(np.array([1.0, 2.0]))
        y = gt.sum_all(gt.mul(x, c))
        assert [n.name for n in tape.nodes] == [None, "mul", "sum"]
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        assert c.grad is None

    def test_record_custom_op(self):
        tape = gt.Tape(dtype=np.float64)
        x = tape.parameter(np.array([1.0, -2.0]))
        doubled = tape.record(x.array * 2.0, (x,), lambda g: (g * 2.0,), name="twice")
        y = gt.sum_all(doubled)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_shape_mismatch_raises(self):
        tape = gt.Tape()
        a = tape.parameter(np.ones((2, 3)))
        b = tape.parameter(np.ones((3, 2)))
        with pytest.raises(ValueError):
            gt.add(a, b)
        with pytest.raises(ValueError):
            gt.matmul(a, tape.parameter(np.ones((2, 2))))
