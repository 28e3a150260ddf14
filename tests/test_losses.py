"""Closed forms, sign conventions, and optimization directions of the losses."""

import numpy as np
import pytest

from squant import gradtape as gt
from squant.losses import (
    EPS,
    GaussianStats,
    LossReport,
    attention_alignment,
    distill_loss_node,
    distribution_loss,
    distribution_loss_node,
    entropy_ceiling,
    entropy_loss,
    entropy_loss_node,
    qk_stats,
    total_loss_node,
)
from squant.seeding import substream


def causal_softmax(logits):
    n = logits.shape[-1]
    mask = np.tril(np.ones((n, n), dtype=bool))
    shifted = np.where(mask, logits, -np.inf)
    e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    e = np.where(mask, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


class TestQkStats:
    def test_constant_q_zero_variance(self):
        q = np.ones((1, 2, 4, 3))
        k = substream(9, "qk-c").normal(size=(1, 2, 4, 3))
        stats = qk_stats(q, k)
        np.testing.assert_array_equal(stats.var_q, np.zeros((1, 2)))

    def test_plus_minus_one_gives_unit_variance(self):
        q = np.tile(np.array([1.0, -1.0]), (1, 1, 4, 3))[:, :, :, :6]
        stats = qk_stats(q, q)
        np.testing.assert_allclose(stats.var_q, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = substream(9, "qk-2p")
        q = rng.normal(size=(2, 3, 8, 4))
        k = rng.normal(size=(2, 3, 8, 4))
        stats = qk_stats(q, k)
        for l in range(2):
            for h in range(3):
                flat = q[l, h].reshape(-1)
                mu = flat.sum() / flat.size
                var = ((flat - mu) ** 2).sum() / flat.size
                assert stats.var_q[l, h] == pytest.approx(var, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qk_stats(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestEntropyLoss:
    def test_zero_variance_guard(self):
        stats = GaussianStats(var_q=np.zeros((1, 1)), var_k=np.zeros((1, 1)))
        assert entropy_loss(stats, eps=1e-8) == pytest.approx(-np.log(1e-8))

    def test_unit_variance_closed_form(self):
        stats = GaussianStats(var_q=np.ones((1, 1)), var_k=np.ones((1, 1)))
        want = -np.log(np.log(2.0))
        assert entropy_loss(stats, eps=1e-12) == pytest.approx(want, abs=1e-6)
        assert want == pytest.approx(0.3665, abs=1e-4)

    def test_strictly_decreasing_in_variance(self):
        rng = substream(9, "ent-mono")
        vq = rng.uniform(0.1, 2.0, size=(2, 2))
        vk = rng.uniform(0.1, 2.0, size=(2, 2))
        base = entropy_loss(GaussianStats(vq, vk))
        for l in range(2):
            for h in range(2):
                bumped = vq.copy()
                bumped[l, h] *= 2.0
                assert entropy_loss(GaussianStats(bumped, vk)) < base

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            entropy_loss(GaussianStats(np.ones((1, 1)), np.ones((1, 1))), eps=0.0)

    def test_node_matches_value(self):
        rng = substream(9, "ent-node")
        q = rng.normal(size=(6, 8))
        k = rng.normal(size=(6, 8))
        tape = gt.Tape(dtype=np.float64)
        node, stats = entropy_loss_node([tape.parameter(q)], [tape.parameter(k)], heads=2)
        assert node.item() == pytest.approx(entropy_loss(stats), abs=1e-9)
        want = qk_stats(q.reshape(1, 1, 6, 8)[:, :, :, :4].reshape(1, 1, 6, 4), k.reshape(1, 1, 6, 8)[:, :, :, :4].reshape(1, 1, 6, 4))
        assert stats.var_q[0][0] == pytest.approx(want.var_q[0, 0], abs=1e-9)

    def test_node_bits_match_per_head_chain(self):
        rng = substream(9, "ent-bits")
        qs = [rng.normal(size=(32, 64)).astype(np.float32) for _ in range(2)]
        ks = [rng.normal(scale=0.5, size=(32, 64)).astype(np.float32) for _ in range(2)]
        tape = gt.Tape()
        node, stats = entropy_loss_node([tape.parameter(q) for q in qs], [tape.parameter(k) for k in ks], heads=4)
        total = None
        for q, k in zip(qs, ks):
            for h in range(4):
                qb, kb = (a[:, 16 * h : 16 * (h + 1)].copy() for a in (q, k))
                vq, vk = (((b - b.mean(dtype=np.float32)) ** 2).mean(dtype=np.float32) for b in (qb, kb))
                term = np.log(vq * vk + np.float32(1.0))
                total = term if total is None else total + term
        assert node.item() == float(-np.log(total + np.float32(EPS)))

    def test_node_gradient_vs_fd(self):
        rng = substream(9, "ent-fd")
        q0 = rng.normal(size=(5, 4))
        k0 = rng.normal(size=(5, 4))

        def value(q):
            tape = gt.Tape(dtype=np.float64)
            node, _ = entropy_loss_node([tape.parameter(q)], [tape.constant(k0)], heads=2)
            return tape, node

        tape, node = value(q0)
        tape.backward(node)
        got = tape.nodes[0].grad
        h = 1e-6
        fd = np.zeros_like(q0)
        for i in range(q0.size):
            for sign in (1.0, -1.0):
                bumped = q0.copy().reshape(-1)
                bumped[i] += sign * h
                _, n2 = value(bumped.reshape(q0.shape))
                fd.reshape(-1)[i] += sign * n2.item()
        fd /= 2 * h
        np.testing.assert_allclose(got, fd, rtol=2e-2, atol=1e-10)


class TestEntropyCeiling:
    def build(self, q, k, ceiling, dtype=np.float64):
        tape = gt.Tape(dtype=dtype)
        qn, kn = tape.parameter(q), tape.parameter(k)
        node, stats = entropy_loss_node([qn], [kn], heads=2, ceiling=ceiling)
        tape.backward(node)
        return node, stats, qn.grad, kn.grad

    def inputs(self):
        rng = substream(9, "ent-ceil")
        return rng.normal(size=(6, 8)), rng.normal(scale=0.5, size=(6, 8))

    def test_ceiling_matches_block_variances(self):
        q, k = self.inputs()
        for dtype in (np.float32, np.float64):
            qd, kd = q.astype(dtype), k.astype(dtype)
            got = entropy_ceiling([qd, kd], [kd, qd], heads=2)
            want = [
                [np.log1p(a[:, :4].var() * b[:, :4].var()), np.log1p(a[:, 4:].var() * b[:, 4:].var())]
                for a, b in ((qd, kd), (kd, qd))
            ]
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, np.array(want, dtype=dtype))

    def test_none_bit_identical_to_unreachable_ceiling(self):
        q, k = self.inputs()
        for dtype in (np.float32, np.float64):
            plain = self.build(q, k, None, dtype)
            high = self.build(q, k, np.full((1, 2), np.inf), dtype)
            assert plain[0].item() == high[0].item()
            np.testing.assert_array_equal(plain[2], high[2])
            np.testing.assert_array_equal(plain[3], high[3])

    def test_head_at_ceiling_is_constant_and_gradient_free(self):
        q, k = self.inputs()
        node, stats, gq, gk = self.build(q, k, None)
        terms = np.log(stats.var_q * stats.var_k + 1.0)
        # head 0 exactly at its ceiling, head 1 below an unreachable one
        at, at_stats, at_gq, at_gk = self.build(q, k, np.array([[terms[0, 0], np.inf]]))
        assert at.item() == node.item()
        for g in (at_gq, at_gk):
            np.testing.assert_array_equal(g[:, :4], 0.0)
        np.testing.assert_array_equal(at_gq[:, 4:], gq[:, 4:])
        np.testing.assert_array_equal(at_gk[:, 4:], gk[:, 4:])
        np.testing.assert_array_equal(at_stats.var_q, stats.var_q)

    def test_head_above_ceiling_contributes_exactly_the_ceiling(self):
        q, k = self.inputs()
        _, stats, _, _ = self.build(q, k, None)
        terms = np.log(stats.var_q * stats.var_k + 1.0)
        cap = 0.5 * terms[0, 0]
        node, _, gq, gk = self.build(q, k, np.array([[cap, np.inf]]))
        assert node.item() == pytest.approx(-np.log(EPS + cap + terms[0, 1]), abs=1e-12)
        np.testing.assert_array_equal(gq[:, :4], 0.0)
        np.testing.assert_array_equal(gk[:, :4], 0.0)
        assert np.abs(gq[:, 4:]).sum() > 0.0

    def test_student_equal_to_teacher_sends_no_gradient(self):
        q, k = self.inputs()
        ceiling = entropy_ceiling([q], [k], heads=2)
        node, _, gq, gk = self.build(q, k, ceiling)
        assert node.item() == pytest.approx(-np.log(EPS + ceiling.sum()), abs=1e-12)
        for g in (gq, gk):
            assert g is None or not g.any()


class TestDistributionLoss:
    def test_identical_maps_near_zero(self):
        maps = causal_softmax(substream(9, "dist-id").normal(size=(1, 1, 5, 5)))
        assert attention_alignment(maps, maps) == pytest.approx(1.0, abs=1e-9)
        assert distribution_loss(maps, maps) == pytest.approx(-np.log(1 + EPS), abs=1e-9)

    def test_alignment_counts_layer_heads(self):
        maps = causal_softmax(substream(9, "dist-lh").normal(size=(2, 3, 4, 4)))
        assert attention_alignment(maps, maps) == pytest.approx(6.0, abs=1e-6)

    def test_hand_cosine(self):
        a = np.array([[[[1.0, 0.0], [0.5, 0.5]]]])
        b = np.array([[[[1.0, 0.0], [0.25, 0.75]]]])
        num = 1.0 + 0.5 * 0.25 + 0.5 * 0.75
        den = np.sqrt(1 + 0.25 + 0.25) * np.sqrt(1 + 0.0625 + 0.5625)
        assert attention_alignment(a, b) == pytest.approx(num / den, abs=1e-6)

    def test_sign_conventions(self):
        maps = causal_softmax(substream(9, "dist-sign").normal(size=(1, 2, 4, 4)))
        s = attention_alignment(maps, maps)
        assert distribution_loss(maps, maps) == pytest.approx(-np.log(EPS + s))
        assert distribution_loss(maps, maps, literal_sign=True) == pytest.approx(np.log(EPS + s))

    def test_node_matches_value(self):
        rng = substream(9, "dist-node")
        student = causal_softmax(rng.normal(size=(2, 2, 4, 4)))
        teacher = causal_softmax(rng.normal(size=(2, 2, 4, 4)))
        tape = gt.Tape(dtype=np.float64)
        nodes = [tape.parameter(student[l]) for l in range(2)]
        node, s = distribution_loss_node(nodes, teacher)
        assert s == pytest.approx(attention_alignment(student, teacher), abs=1e-9)
        assert node.item() == pytest.approx(distribution_loss(student, teacher), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            attention_alignment(np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 2, 2)))

    def test_node_bits_match_per_head_chain(self):
        # 2 layers x 4 heads: 8 cosines, where numpy's pairwise sum would round differently
        rng = substream(9, "dist-bits")
        for _ in range(10):
            student = causal_softmax(rng.normal(size=(2, 4, 16, 16))).astype(np.float32)
            teacher = causal_softmax(rng.normal(size=(2, 4, 16, 16))).astype(np.float32)
            tape = gt.Tape()
            node, s = distribution_loss_node([tape.parameter(student[l]) for l in range(2)], teacher)
            total = None
            for a, t in zip(student.reshape(8, 16, 16), teacher.reshape(8, 16, 16)):
                cos = (a * t).sum(dtype=np.float32) / (np.sqrt((a * a).sum(dtype=np.float32)) * np.linalg.norm(t))
                total = cos if total is None else total + cos
            assert s == float(total)
            assert node.item() == float(-np.log(total + np.float32(EPS)))


def chain_entropy(q_nodes, k_nodes, heads, eps=EPS, ceiling=None):
    """The op chain ``entropy_loss_node`` replaces."""
    var_q, var_k = (
        gt.variance_per(gt.concat([gt.split_heads(n, heads) for n in nodes])) for nodes in (q_nodes, k_nodes)
    )
    terms = gt.log(gt.add_scalar(gt.mul(var_q, var_k), 1.0))
    if ceiling is not None:
        terms = gt.clamp_max(terms, np.reshape(ceiling, terms.shape))
    shape = (len(q_nodes), heads)
    stats = GaussianStats(var_q=var_q.array.reshape(shape), var_k=var_k.array.reshape(shape))
    return gt.neg(gt.log(gt.add_scalar(gt.sum_in_order(terms), eps))), stats


def chain_distribution(attn_nodes, teacher_probs, eps=EPS, literal_sign=False):
    """The op chain ``distribution_loss_node`` replaces."""
    maps = gt.concat(attn_nodes)
    tape = maps.tape
    target = np.asarray(teacher_probs, dtype=np.float64).reshape(maps.shape).astype(tape.dtype)
    flat = target.reshape(len(target), 1, -1)
    t_norm = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
    num = gt.sum_per(gt.mul(maps, tape.constant(target)))
    qq = gt.sqrt(gt.sum_per(gt.mul(maps, maps)))
    total = gt.sum_in_order(gt.div(num, gt.mul(qq, tape.constant(t_norm))))
    node = gt.log(gt.add_scalar(total, eps))
    return (node if literal_sign else gt.neg(node)), float(total.array)


def same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# (layers, heads, tokens, width); 2 x 8 gives 16 (layer, head) terms, where numpy's pairwise sum would round differently
SHAPES = [(1, 1, 1, 4), (1, 2, 1, 4), (2, 1, 6, 8), (2, 4, 5, 8), (2, 8, 3, 16), (2, 2, 32, 32)]


class TestFusedNodes:
    """Each aux loss as one node against the op chain it replaces, byte for byte."""

    @staticmethod
    def backward(tape, node, sign, parents):
        tape.backward(gt.mul_scalar(node, 0.7 * sign))  # the downstream gradient's sign
        return [p.grad for p in parents]

    def entropy(self, build, qs, ks, heads, ceiling, sign, dtype, constant_k=False):
        tape = gt.Tape(dtype=dtype)
        q_nodes = [tape.parameter(q) for q in qs]
        k_nodes = [(tape.constant if constant_k else tape.parameter)(k) for k in ks]
        node, stats = build(q_nodes, k_nodes, heads, ceiling=ceiling)
        return node.array, stats, self.backward(tape, node, sign, q_nodes + k_nodes)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers,heads,t_len,d", SHAPES)
    @pytest.mark.parametrize("clip", [None, "some", "none"])
    def test_entropy_bits_equal_the_op_chain(self, layers, heads, t_len, d, dtype, sign, clip):
        rng = substream(9, f"ent-fused-{layers}-{heads}-{t_len}")
        qs = [rng.normal(size=(t_len, d)).astype(dtype) for _ in range(layers)]
        ks = [rng.normal(scale=0.5, size=(t_len, d)).astype(dtype) for _ in range(layers)]
        ceiling = None
        if clip is not None:
            _, stats, _ = self.entropy(chain_entropy, qs, ks, heads, None, sign, dtype)
            terms = np.log1p(stats.var_q * stats.var_k)
            lower = (np.arange(terms.size) % 2 == 0).reshape(terms.shape) if clip == "some" else False
            ceiling = np.where(lower, 0.5 * terms, terms + 0.5)  # "some" clips every other head
        fused = self.entropy(entropy_loss_node, qs, ks, heads, ceiling, sign, dtype)
        chain = self.entropy(chain_entropy, qs, ks, heads, ceiling, sign, dtype)
        same_bytes(fused[0], chain[0])
        same_bytes(fused[1].var_q, chain[1].var_q)
        same_bytes(fused[1].var_k, chain[1].var_k)
        for a, b in zip(fused[2], chain[2]):
            same_bytes(a, b)

    def test_entropy_constant_parents_get_no_gradient(self):
        rng = substream(9, "ent-fused-const")
        qs, ks = ([rng.normal(size=(6, 8)).astype(np.float32)] for _ in range(2))
        fused = self.entropy(entropy_loss_node, qs, ks, 2, None, 1.0, np.float32, constant_k=True)
        chain = self.entropy(chain_entropy, qs, ks, 2, None, 1.0, np.float32, constant_k=True)
        same_bytes(fused[2][0], chain[2][0])
        assert fused[2][1] is None and chain[2][1] is None

    def distribution(self, build, student, teacher, literal_sign, sign, dtype):
        tape = gt.Tape(dtype=dtype)
        nodes = [tape.parameter(m) for m in student]
        node, alignment = build(nodes, teacher, literal_sign=literal_sign)
        return node.array, alignment, self.backward(tape, node, sign, nodes)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers,heads,t_len,d", SHAPES)
    @pytest.mark.parametrize("literal_sign", [False, True])
    def test_distribution_bits_equal_the_op_chain(self, layers, heads, t_len, d, dtype, sign, literal_sign):
        rng = substream(9, f"dist-fused-{layers}-{heads}-{t_len}")
        student = causal_softmax(rng.normal(size=(layers, heads, t_len, t_len))).astype(dtype)
        teacher = causal_softmax(rng.normal(size=(layers, heads, t_len, t_len)))
        fused = self.distribution(distribution_loss_node, student, teacher, literal_sign, sign, dtype)
        chain = self.distribution(chain_distribution, student, teacher, literal_sign, sign, dtype)
        same_bytes(fused[0], chain[0])
        assert fused[1] == chain[1]
        for a, b in zip(fused[2], chain[2]):
            same_bytes(a, b)

    def test_one_node_each(self):
        tape = gt.Tape()
        q, k = (tape.parameter(np.ones((4, 4), np.float32) + np.eye(4, dtype=np.float32)) for _ in range(2))
        maps = tape.parameter(np.full((2, 4, 4), 0.25, np.float32))
        entropy_loss_node([q], [k], heads=2)
        distribution_loss_node([maps], np.full((1, 2, 4, 4), 0.25))
        assert [n.name for n in tape.nodes[3:]] == ["entropy", "distribution"]

    @staticmethod
    def fd_check(value, x0):
        """Float64 tape gradient of ``value(x) -> node`` against central differences."""
        x = gt.Tape(dtype=np.float64).parameter(x0)
        x.tape.backward(value(x))
        h = 1e-6
        fd = np.zeros_like(x0)
        for i in range(x0.size):
            for s in (1.0, -1.0):
                bumped = x0.copy().reshape(-1)
                bumped[i] += s * h
                fd.reshape(-1)[i] += s * value(gt.Tape(dtype=np.float64).parameter(bumped.reshape(x0.shape))).item()
        np.testing.assert_allclose(x.grad, fd / (2 * h), rtol=1e-6, atol=1e-8)

    def test_entropy_gradient_vs_fd(self):
        rng = substream(9, "ent-fused-fd")
        q0, k0 = rng.normal(size=(5, 6)), rng.normal(scale=0.5, size=(5, 6))
        ceiling = entropy_ceiling([q0], [k0], heads=3) * np.array([[0.5, 2.0, 2.0]])  # head 0 clipped

        def value_q(x):
            return entropy_loss_node([x], [x.tape.constant(k0)], heads=3, ceiling=ceiling)[0]

        def value_k(x):
            return entropy_loss_node([x.tape.constant(q0)], [x], heads=3, ceiling=ceiling)[0]

        self.fd_check(value_q, q0)
        self.fd_check(value_k, k0)

    @pytest.mark.parametrize("literal_sign", [False, True])
    def test_distribution_gradient_vs_fd(self, literal_sign):
        rng = substream(9, "dist-fused-fd")
        student = causal_softmax(rng.normal(size=(2, 2, 4, 4)))
        teacher = causal_softmax(rng.normal(size=(2, 2, 4, 4)))

        def value(x):
            return distribution_loss_node([x, x.tape.constant(student[1])], teacher, literal_sign=literal_sign)[0]

        self.fd_check(value, student[0])


class TestDistillLoss:
    def setup_logits(self):
        rng = substream(9, "distill")
        s = rng.normal(size=(6, 10))
        t = rng.normal(size=(6, 10))
        targets = rng.integers(0, 10, size=6)
        return s, t, targets

    def test_gamma_zero_is_pure_ce(self):
        s, t, targets = self.setup_logits()
        tape = gt.Tape(dtype=np.float64)
        node_s = tape.parameter(s)
        distill, ce, _ = distill_loss_node(node_s, t, targets, gamma=0.0, tau=2.0)
        assert distill.item() == pytest.approx(ce.item(), abs=1e-12)

    def test_equal_logits_zero_kl(self):
        s, _, targets = self.setup_logits()
        tape = gt.Tape(dtype=np.float64)
        node_s = tape.parameter(s)
        distill, ce, kl = distill_loss_node(node_s, s.copy(), targets, gamma=0.4, tau=3.0)
        assert abs(kl.item()) < 1e-12
        assert distill.item() == pytest.approx(0.6 * ce.item(), abs=1e-12)

    def test_weighting_arithmetic(self):
        s, t, targets = self.setup_logits()
        tape = gt.Tape(dtype=np.float64)
        node_s = tape.parameter(s)
        distill, ce, kl = distill_loss_node(node_s, t, targets, gamma=0.5, tau=2.0)
        assert distill.item() == pytest.approx(0.5 * ce.item() + 2.0 * kl.item(), abs=1e-12)

    def test_nonnegative(self):
        s, t, targets = self.setup_logits()
        tape = gt.Tape(dtype=np.float64)
        distill, _, _ = distill_loss_node(tape.parameter(s), t, targets, gamma=0.5, tau=2.0)
        assert distill.item() >= 0.0

    def test_parameter_validation(self):
        s, t, targets = self.setup_logits()
        tape = gt.Tape(dtype=np.float64)
        node_s = tape.parameter(s)
        with pytest.raises(ValueError):
            distill_loss_node(node_s, t, targets, gamma=1.5, tau=2.0)
        with pytest.raises(ValueError):
            distill_loss_node(node_s, t, targets, gamma=0.5, tau=0.0)


class TestTotalLoss:
    def build_all(self, r_E, r_D, dtype=np.float32):
        rng = substream(9, "total")
        tape = gt.Tape(dtype=dtype)
        s = tape.parameter(rng.normal(size=(5, 8)))
        t = rng.normal(size=(5, 8))
        targets = rng.integers(0, 8, size=5)
        q = tape.parameter(rng.normal(size=(5, 4)))
        k = tape.parameter(rng.normal(size=(5, 4)))
        student_maps = causal_softmax(rng.normal(size=(1, 1, 5, 5)))
        teacher_maps = causal_softmax(rng.normal(size=(1, 1, 5, 5)))
        distill, ce, kl = distill_loss_node(s, t, targets, gamma=0.5, tau=2.0)
        ent, _ = entropy_loss_node([q], [k], heads=1)
        dist, _ = distribution_loss_node([tape.parameter(student_maps[0])], teacher_maps)
        return total_loss_node(distill, ce, kl, ent, dist, r_E, r_D, 0.5, 2.0)

    def test_zero_weights_reduce_to_distill(self):
        total, report = self.build_all(0.0, 0.0)
        assert report.total == report.distill

    def test_report_reassembles_bit_exactly(self):
        total, report = self.build_all(0.5, 1.0)
        assert report.total == report.reassembled()

    def test_defaults_recombine(self):
        total, report = self.build_all(0.5, 1.0)
        f = np.float32
        want = (
            f(report.distill) + f(report.entropy_loss) * f(0.5)
        ) + f(report.distribution_loss) * f(1.0)
        assert report.total == float(want)

    def test_report_roundtrips_as_dict(self):
        _, report = self.build_all(0.5, 1.0)
        clone = LossReport.from_dict(report.to_dict())
        assert clone == report


class TestOptimizationDirections:
    def test_entropy_descent_raises_inner_sum(self):
        # SGD on the entropy term alone must push total variance up
        for seed in (0, 1):
            rng = substream(seed, "ent-dir")
            q = rng.normal(scale=0.5, size=(8, 6))
            k = rng.normal(scale=0.5, size=(8, 6))
            prev = None
            for _ in range(50):
                tape = gt.Tape(dtype=np.float64)
                qn, kn = tape.parameter(q), tape.parameter(k)
                node, stats = entropy_loss_node([qn], [kn], heads=2)
                inner = float(np.sum(np.log(1.0 + stats.var_q * stats.var_k)))
                if prev is not None:
                    assert inner > prev
                prev = inner
                tape.backward(node)
                q = q - 1e-2 * qn.grad
                k = k - 1e-2 * kn.grad

    def test_distribution_descent_raises_cosine(self):
        for seed in (0, 1):
            rng = substream(seed, "dist-dir")
            logits = rng.normal(size=(2, 3, 6, 6))
            teacher = causal_softmax(rng.normal(size=(2, 3, 6, 6)))
            prev = None
            for _ in range(50):
                tape = gt.Tape(dtype=np.float64)
                params = [tape.parameter(logits[l]) for l in range(2)]
                nodes = [gt.softmax_rows(p, causal=True) for p in params]
                node, s = distribution_loss_node(nodes, teacher)
                if prev is not None:
                    assert s > prev
                prev = s
                tape.backward(node)
                for l, p in enumerate(params):
                    logits[l] = logits[l] - 1e-2 * p.grad
