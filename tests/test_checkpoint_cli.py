"""Checkpoint round-trips and the command-line surface end to end."""

import csv
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import squant.cli
import squant.gradtape as gt
from squant.checkpoint import (
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from squant.cli import RunConfigError, _load_model_checkpoint, _parse_shapes, load_run_config, main as cli_main
from squant.model import (
    ACT_SITES,
    Calibration,
    MicroTransformerConfig,
    forward_tape,
    group_scale,
    init_params,
    params_to_tape,
)
from squant.seeding import substream
from squant.train import LOSS_CELLS, QUANT_CELLS, RunConfig

TWO_LAYER_KEYS = [Calibration.key(l, site, group) for l in range(2) for site in ACT_SITES for group in ("hi", "lo")]


class TestCheckpointRoundTrip:
    def test_params_bit_exact(self, tmp_path):
        rng = substream(7, "ckpt.params")
        params = {
            "a": rng.normal(size=(3, 5)).astype(np.float32),
            "b": rng.normal(size=(1,)).astype(np.float32),
            "nested.name.w": rng.normal(size=(4, 2)).astype(np.float32),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={"model": {}}, params=params))
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(params)
        for name in params:
            assert loaded.params[name].dtype == np.float32
            np.testing.assert_array_equal(loaded.params[name], params[name])

    def test_config_echo(self, tmp_path):
        path = tmp_path / "m.ckpt"
        cfg = {"model": {"dim": 32}, "corpus_length": 128}
        save_checkpoint(path, Checkpoint(config=cfg, params={}))
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.calibration is None

    def test_header_holds_the_echo_the_index_and_the_calibration_only(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={}, params={}, calibration={"l0.attn_in.hi": 0.5}))
        raw = path.read_bytes()
        assert np.frombuffer(raw[4:8], dtype="<u4")[0] == VERSION == 1  # the preamble keeps its version
        header = json.loads(raw[12:])
        assert header == {"calibration": {"l0.attn_in.hi": 0.5}, "config": {}, "tensors": []}

    def test_calibration_floats_exact(self, tmp_path):
        calib = Calibration()
        rows = np.arange(1)
        for i, site in enumerate(ACT_SITES):
            group_scale(np.array([[0.1 + i / 7.0]]), rows, 8, calib=calib, key=f"l0.{site}.hi", training=True)
            group_scale(np.array([[0.3 + i / 11.0]]), rows, 8, calib=calib, key=f"l0.{site}.hi", training=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(
            path, Checkpoint(config={}, params={}, calibration=calib.state_dict())
        )
        loaded = Calibration.from_state_dict(load_checkpoint(path).calibration, layers=1)
        assert len(loaded.ema) == 6 and loaded.ema == calib.ema  # float64 JSON round-trip must be lossless

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        ema=st.dictionaries(
            st.one_of(st.sampled_from(TWO_LAYER_KEYS), st.text(max_size=12)),
            st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
            max_size=8,
        )
    )
    def test_calibration_table_round_trips(self, tmp_path, ema):
        calib = Calibration()
        calib.ema = dict(ema)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={}, params={}, calibration=calib.state_dict()))
        stored = load_checkpoint(path).calibration
        assert stored == ema  # the checkpoint keeps any key
        legal = {k: m for k, m in ema.items() if k in TWO_LAYER_KEYS}
        if legal != ema:  # the model takes only keys of its own quantizers
            with pytest.raises(ValueError, match="is not l"):
                Calibration.from_state_dict(stored, layers=2)
        loaded = Calibration.from_state_dict(legal, layers=2)
        assert loaded.ema == legal
        # one running max per key, keys sorted
        assert list(loaded.state_dict().items()) == sorted(legal.items())

    def test_forward_logits_bit_exact(self, tmp_path):
        cfg = MicroTransformerConfig(seed=3)
        params = init_params(cfg)
        tokens = substream(3, "ckpt.tokens").integers(0, cfg.vocab, size=cfg.seq_len)

        def logits_of(p):
            tape = gt.Tape(dtype=np.float32)
            tp = params_to_tape(tape, p, trainable=False)
            return forward_tape(tape, tp, tokens, cfg, quantized=False).logits.array

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={"model": cfg.to_dict()}, params=params))
        reloaded = load_checkpoint(path).params
        np.testing.assert_array_equal(logits_of(params), logits_of(reloaded))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={}, params={}))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={}, params={}))
        raw = bytearray(path.read_bytes())
        raw[4:8] = np.uint32(99).astype("<u4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(
            path,
            Checkpoint(config={}, params={"w": np.ones((8, 8), dtype=np.float32)}),
        )
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_magic_is_first_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(config={}, params={}))
        assert path.read_bytes()[:4] == MAGIC


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 3, "stepz": 4}))
        with pytest.raises(RunConfigError, match="stepz"):
            load_run_config(path)

    def test_model_and_run_keys_split(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 3, "corpus_length": 256, "rho": 0.25}))
        rc = load_run_config(path)
        assert rc.model.steps == 3
        assert rc.model.rho == 0.25
        assert rc.corpus_length == 256

    def test_invalid_model_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 1.5}))
        with pytest.raises(RunConfigError, match="rho"):
            load_run_config(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("steps: 3")
        with pytest.raises(RunConfigError, match="JSON"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "config,corpus",
        [
            ({"steps": "ten"}, None),
            ({"teacher_steps": -5}, None),
            ({"steps": True}, None),  # bools are not integers here
            ({"seed": 1.5}, None),
            ({"heads": 0}, None),
            ({"corpus_length": None}, None),
            ({}, [0, 1, 64]),  # id past the vocabulary of 64
            ({}, [0, -1, 2]),
            ({}, [0.0, 1.0, 2.0]),
            ({"lr": "fast"}, None),
            ({"teacher_lr": "x"}, None),
            ({"heldout_fraction": "x"}, None),
            ({"heldout_fraction": 1.5}, None),
            ({"lr": float("inf")}, None),
            ({"corpus_length": 20}, None),  # training split shorter than one window
            ({"corpus_length": 40}, None),  # held-out split shorter than one window
            ({"seq_len": 600}, [0, 1, 2]),  # a file corpus too short to train on
            ({"vocab": 3}, None),  # the synthetic corpus needs 4 successors per token
            ({"corpus": 5}, None),
            ({"report_dir": "out"}, None),  # a retired key: --out says where a command writes
            ({"corpus_length": 10**18}, None),  # legal, but no address space holds its tokens
            ({"corpus_length": 10**19}, None),  # more tokens than an int64 array can index
        ],
    )
    def test_train_rejects_bad_input_with_one_line(self, tmp_path, capsys, config, corpus):
        if corpus is not None:
            np.save(tmp_path / "corpus.npy", np.array(corpus * 200))
            config = {**config, "corpus": str(tmp_path / "corpus.npy")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "teacher_steps": config.get("teacher_steps", 1)}))
        capsys.readouterr()
        assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        assert not (tmp_path / "out").exists()

    def test_ablate_rejects_short_corpus_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corpus_length": 20}))
        capsys.readouterr()
        assert cli_main(["ablate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        assert not (tmp_path / "out").exists()

    def test_ablate_rejects_a_corpus_file_with_one_line(self, tmp_path, capsys):
        # ablate draws one synthetic corpus per seed, so a corpus file cannot be honoured
        np.save(tmp_path / "c.npy", np.arange(256) % 64)
        for corpus in (tmp_path / "missing.npy", tmp_path / "c.npy"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "corpus": str(corpus), "steps": 1, "teacher_steps": 1, "corpus_length": 256, "heldout_fraction": 0.5,
            }))
            capsys.readouterr()
            assert cli_main(["ablate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("config error: ") and "corpus" in err, err
            assert not (tmp_path / "out").exists()

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"steps": 3}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"steps": 4}))
        assert load_run_config(a).config_hash() == load_run_config(a).config_hash()
        assert load_run_config(a).config_hash() != load_run_config(b).config_hash()


ECHO_RUN = RunConfig(
    model=MicroTransformerConfig(layers=1, heads=2, dim=8, vocab=16, seq_len=8), corpus_length=256
)


def _raw_checkpoint(path, header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + np.array([VERSION, len(blob)], dtype="<u4").tobytes() + blob + payload)


def _checkpoint_with(path, params=None, config=None, calibration=None):
    params = init_params(ECHO_RUN.model) if params is None else params
    save_checkpoint(path, Checkpoint(config or ECHO_RUN.resolved(), params, calibration=calibration))


def _edited_checkpoint(path, edit_index=None, tail=b""):
    """A valid checkpoint whose tensor index goes through ``edit_index`` and whose file gains ``tail``."""
    _checkpoint_with(path)
    raw = path.read_bytes()
    body = 12 + int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12:body])
    if edit_index is not None:
        edit_index(header["tensors"])
    _raw_checkpoint(path, header, raw[body:] + tail)


def _shape_entry(shape):
    return lambda p: _raw_checkpoint(
        p, {"config": ECHO_RUN.resolved(), "tensors": [{"name": "tok_emb", "shape": shape, "offset": 0}]}
    )


def _without(name):
    params = init_params(ECHO_RUN.model)
    del params[name]
    return params


def _echo_with(model=None, **run):
    echo = ECHO_RUN.resolved()
    echo["model"].update(model or {})
    return {**echo, **run}


BAD_CHECKPOINTS = {
    "header without tensors": lambda p: _raw_checkpoint(p, {"config": ECHO_RUN.resolved()}),
    "tensors not a list": lambda p: _raw_checkpoint(p, {"config": ECHO_RUN.resolved(), "tensors": {}}),
    "malformed index entry": lambda p: _raw_checkpoint(
        p, {"config": ECHO_RUN.resolved(), "tensors": [{"name": "tok_emb", "shape": "8x8", "offset": 0}]}
    ),
    "negative offset": lambda p: _raw_checkpoint(
        p, {"config": ECHO_RUN.resolved(), "tensors": [{"name": "tok_emb", "shape": [1], "offset": -4}]}
    ),
    "header not an object": lambda p: _raw_checkpoint(p, [1, 2]),
    "shorter than the header": lambda p: p.write_bytes(MAGIC + b"\x01\x00"),
    "no tok_emb": lambda p: _checkpoint_with(p, params=_without("tok_emb")),
    "wrong shape": lambda p: _checkpoint_with(
        p, params={**init_params(ECHO_RUN.model), "tok_emb": np.zeros((16, 9), dtype=np.float32)}
    ),
    "non-finite tensor": lambda p: _checkpoint_with(
        p, params={**init_params(ECHO_RUN.model), "l0.attn.wq": np.full((8, 8), np.nan, dtype=np.float32)}
    ),
    "extra tensor": lambda p: _checkpoint_with(
        p, params={**init_params(ECHO_RUN.model), "l9.attn.wq": np.zeros((8, 8), dtype=np.float32)}
    ),
    "unknown model key": lambda p: _checkpoint_with(p, config=_echo_with({"bogus": 1})),
    "retired model key act_bits": lambda p: _checkpoint_with(p, config=_echo_with({"act_bits": 8})),
    # every checkpoint written before weights had one width echoes weight_bits: 4
    "retired model key weight_bits": lambda p: _checkpoint_with(p, config=_echo_with({"weight_bits": 4})),
    "unknown run key": lambda p: _checkpoint_with(p, config=_echo_with(bogus=1)),
    "model key at run level": lambda p: _checkpoint_with(p, config=_echo_with(lr=0.1)),
    "invalid model value": lambda p: _checkpoint_with(p, config=_echo_with({"heads": 3})),
    "model not an object": lambda p: _checkpoint_with(p, config={**ECHO_RUN.resolved(), "model": 5}),
    # default-model tensors and default run keys: only the missing 'model' can reject it
    "no model object": lambda p: _checkpoint_with(
        p,
        params=init_params(MicroTransformerConfig()),
        config={k: v for k, v in RunConfig().resolved().items() if k != "model"},
    ),
    "dim of 2**64": _shape_entry([2**64]),
    "dims whose product overflows int64": _shape_entry([2**32, 2**32]),
    "zero-size shape too big for numpy": _shape_entry([0, 2**63]),
    "overlapping payloads": lambda p: _edited_checkpoint(p, lambda t: t[1].update(offset=t[0]["offset"])),
    "tensor listed twice": lambda p: _edited_checkpoint(p, lambda t: t.append(dict(t[0]))),
    "bytes after the last payload": lambda p: _edited_checkpoint(p, tail=b"\0\0\0\0"),
    "calibration a list": lambda p: _checkpoint_with(p, calibration=[0.95]),
    "old-form calibration": lambda p: _checkpoint_with(
        p,
        calibration={
            "momentum": 0.95,
            "ema": {"l0.attn_in.hi": {"momentum": 0.95, "running_max": 0.75, "initialized": True}},
        },
    ),
    "running max negative": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": -0.75}),
    "running max NaN": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": float("nan")}),
    "running max infinite": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": float("inf")}),
    "running max null": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": None}),
    "running max a string": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": "0.75"}),
    "running max a bool": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": True}),
    # each key present must name a quantizer of the model: a layer it has, one of ACT_SITES and a group
    "bogus": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.hi": 0.75, "bogus": 1.0}),
    "l9.attn_in.hi": lambda p: _checkpoint_with(p, calibration={"l9.attn_in.hi": 0.75}),
    "l0.attn_in.mid": lambda p: _checkpoint_with(p, calibration={"l0.attn_in.mid": 0.75}),
}


class TestCheckpointExitContract:
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_valid_checkpoint_runs(self, tmp_path, command):
        _checkpoint_with(tmp_path / "m.ckpt")
        assert cli_main([command, "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_bad_checkpoint_exits_two_with_one_line(self, tmp_path, capsys, command, case):
        path = tmp_path / "m.ckpt"
        BAD_CHECKPOINTS[case](path)
        capsys.readouterr()
        assert cli_main([command, "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("checkpoint error: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["bogus", "l9.attn_in.hi", "l0.attn_in.mid", "l0.attn_in.hi.x"])
    def test_stray_calibration_key_is_named(self, tmp_path, capsys, key):
        _checkpoint_with(tmp_path / "m.ckpt", calibration={"l0.mlp_in.lo": 0.5, key: 0.75})
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("checkpoint error: ") and repr(key) in err, err

    @pytest.mark.parametrize("calibration", [{}, {"l0.attn_in.hi": 0.75}, {"l0.mlp_hidden.lo": 0.5}])
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_missing_calibration_keys_stay_legal(self, tmp_path, command, calibration):
        # a group never observed (every 8-bit group at rho 0, say) has no key
        _checkpoint_with(tmp_path / "m.ckpt", calibration=calibration)
        assert cli_main([command, "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "model,run",
        [
            ({"act_bits": 8}, {}),
            ({"weight_bits": 4}, {}),
            ({"literal_distribution_sign": False}, {}),
            ({}, {"bench_shapes": [[8, 8, 8]]}),
            ({}, {"checkpoint": "m.ckpt"}),
            ({}, {"report_dir": "reports"}),
        ],
        ids=["act_bits", "weight_bits", "literal_distribution_sign", "bench_shapes", "checkpoint", "report_dir"],
    )
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_retired_echo_key_is_named(self, tmp_path, capsys, command, model, run):
        _checkpoint_with(tmp_path / "m.ckpt", config=_echo_with(model, **run))
        capsys.readouterr()
        assert cli_main([command, "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        (key,) = {**model, **run}
        assert len(err.splitlines()) == 1 and err.startswith("checkpoint error: ") and key in err, err

    def test_bad_teacher_checkpoint_exits_two(self, tmp_path, capsys):
        _checkpoint_with(tmp_path / "student.ckpt")
        _checkpoint_with(tmp_path / "teacher.ckpt", params=_without("pos_emb"))
        capsys.readouterr()
        argv = ["inspect", "--checkpoint", str(tmp_path / "student.ckpt"), "--teacher", str(tmp_path / "teacher.ckpt")]
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "pos_emb" in err, err


def _json_paths(node, prefix=()):
    """Every path of keys and indices into a JSON tree, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def student_file(tmp_path_factory):
    """A valid student checkpoint (tensors, config echo, calibration) and its bytes."""
    calib = Calibration()
    for key in ("l0.attn_in.hi", "l0.attn_in.lo"):
        calib.ema[key] = 0.75
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    _checkpoint_with(path, calibration=calib.state_dict())
    return path, path.read_bytes()


class TestCheckpointFuzz:
    """Whatever the bytes, loading a checkpoint for eval or inspect succeeds or raises CheckpointError."""

    @staticmethod
    def loads_or_rejects(path, raw):
        path.write_bytes(raw)
        try:
            _load_model_checkpoint(path)
        except CheckpointError:
            pass

    @FUZZ
    @given(cut=st.integers(min_value=0))
    def test_truncations(self, student_file, cut):
        path, raw = student_file
        self.loads_or_rejects(path, raw[: cut % len(raw)])

    @FUZZ
    @given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), min_size=1, max_size=4))
    def test_byte_flips(self, student_file, flips):
        path, raw = student_file
        edited = bytearray(raw)
        for at, mask in flips:
            edited[at % len(raw)] ^= mask
        self.loads_or_rejects(path, bytes(edited))

    @FUZZ
    @given(data=st.data())
    def test_header_edits(self, student_file, data):
        path, raw = student_file
        body = 12 + int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        header = json.loads(raw[12:body])
        where = data.draw(st.sampled_from(list(_json_paths(header))))
        value = data.draw(JSON_VALUES)
        if not where:
            header = value
        else:
            parent = header
            for key in where[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                parent[where[-1]] = value
            else:
                del parent[where[-1]]
        blob = json.dumps(header).encode("utf-8")
        self.loads_or_rejects(path, raw[:4] + np.array([VERSION, len(blob)], dtype="<u4").tobytes() + blob + raw[body:])


class TestVerifyKernelsCommand:
    def test_clean_run_exit_zero(self, capsys):
        assert cli_main(["verify-kernels", "--cases", "25", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "25 cases" in out
        assert "0 mismatches" in out

    def test_corrupt_run_exit_one_with_reproducer(self, capsys):
        assert cli_main(["verify-kernels", "--cases", "3", "--corrupt"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "seed=0" in out

    def test_zero_cases_usage_error(self):
        assert cli_main(["verify-kernels", "--cases", "0"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_rule_exits_two_with_one_line(self, capsys, seed):
        # a 64-bit mask would run -1 as seed 2**64 - 1 and 2**64 as seed 0
        assert cli_main(["verify-kernels", "--cases", "1", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1 and "seed" in captured.err, captured.err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_an_end_of_the_rule_runs(self, capsys, seed):
        assert cli_main(["verify-kernels", "--cases", "3", "--seed", str(seed)]) == 0
        assert "3 cases" in capsys.readouterr().out


class TestGemmBenchCommand:
    def test_no_time_output_bit_identical(self, tmp_path):
        for sub in ("r1", "r2"):
            code = cli_main(
                ["gemm-bench", "--shapes", "8x8x8;16x4x6", "--no-time", "--out", str(tmp_path / sub)]
            )
            assert code == 0
        assert (tmp_path / "r1/gemm_bench.csv").read_bytes() == (tmp_path / "r2/gemm_bench.csv").read_bytes()
        assert (tmp_path / "r1/gemm_bench.json").read_bytes() == (tmp_path / "r2/gemm_bench.json").read_bytes()

    def test_packed_mul_half_of_byte(self, tmp_path):
        assert cli_main(["gemm-bench", "--shapes", "8x8x8;32x16x8", "--no-time", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "gemm_bench.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        by_key = {(r["m"], r["k"], r["n"], r["kernel"]): r for r in rows}
        for shape in (("8", "8", "8"), ("32", "16", "8")):
            byte = int(by_key[shape + ("byte",)]["mul_count"])
            packed = int(by_key[shape + ("packed",)]["mul_count"])
            assert packed * 2 == byte

    def test_fixed_header_and_hash_column(self, tmp_path):
        assert cli_main(["gemm-bench", "--shapes", "4x4x4", "--no-time", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "gemm_bench.csv", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = list(reader)
        assert header == ["m", "k", "n", "kernel", "mul_count", "add_count", "median_wall_ns", "reps", "config_hash"]
        hashes = {r[-1] for r in rows}
        assert len(hashes) == 1
        assert len(hashes.pop()) == 64

    @pytest.mark.parametrize(
        "text,want", [("64x64x64;32x16x8", ((64, 64, 64), (32, 16, 8))), (" 8x8x8 ; 1x1x1 ", ((8, 8, 8), (1, 1, 1)))]
    )
    def test_shapes_parse_to_triples(self, text, want):
        assert _parse_shapes(text) == want

    @pytest.mark.parametrize("shapes", ["8x8", "0x8x8", "8.5x8x8", "", "8x8x8x8", "8x8x-1", "axbxc", "8x8x8;", ";"])
    def test_malformed_shapes_exit_two(self, tmp_path, capsys, shapes):
        capsys.readouterr()
        assert cli_main(["gemm-bench", "--shapes", shapes, "--no-time", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ") and "--shapes" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    @pytest.mark.parametrize("timing", [[], ["--no-time"]])
    def test_reps_below_one_usage_error(self, tmp_path, capsys, reps, timing):
        capsys.readouterr()
        argv = ["gemm-bench", "--shapes", "8x8x8", "--reps", reps, *timing, "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == "reps must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_timed_run_reports_positive_median(self, tmp_path):
        assert cli_main(["gemm-bench", "--shapes", "8x8x8", "--reps", "100", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "gemm_bench.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(int(r["median_wall_ns"]) > 0 for r in rows)
        assert all(int(r["reps"]) == 100 for r in rows)

    def test_json_reports_ns_per_modelled_multiply(self, tmp_path):
        for sub, flags in (("timed", ["--reps", "20"]), ("untimed", ["--no-time"])):
            assert cli_main(["gemm-bench", "--shapes", "8x8x8", *flags, "--out", str(tmp_path / sub)]) == 0
        for sub in ("timed", "untimed"):
            report = json.loads((tmp_path / sub / "gemm_bench.json").read_text())
            rows = [dict(zip(report["header"], r)) for r in report["rows"]]
            for r in rows:
                assert r["ns_per_mul"] == r["median_wall_ns"] / r["mul_count"]
                assert (r["ns_per_mul"] > 0) == (sub == "timed")


TINY = {
    "steps": 5,
    "seed": 0,
    "corpus_length": 512,
    "teacher_steps": 5,
    "teacher_lr": 0.3,
    "lr": 0.05,
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One tiny train invocation shared by the artifact-consuming tests."""
    root = tmp_path_factory.mktemp("tiny_run")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out = root / "run"
    code = cli_main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return cfg_path, out


class TestTrainEvalCommands:
    def test_artifacts_written(self, tiny_run):
        _, out = tiny_run
        for name in ("teacher.ckpt", "student.ckpt", "loss_log.jsonl", "summary.json"):
            assert (out / name).exists()

    def test_loss_log_one_line_per_step(self, tiny_run):
        _, out = tiny_run
        lines = (out / "loss_log.jsonl").read_text().splitlines()
        assert len(lines) == TINY["steps"]
        record = json.loads(lines[-1])
        for key in ("ce", "kl", "entropy_loss", "distribution_loss", "total"):
            assert key in record

    def test_summary_has_hash_and_ppls(self, tiny_run):
        _, out = tiny_run
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["config_hash"]) == 64
        assert summary["teacher_ppl"] > 0
        assert summary["student_ppl"] > 0

    def test_eval_reproduces_logged_student_ppl(self, tiny_run, tmp_path):
        _, out = tiny_run
        summary = json.loads((out / "summary.json").read_text())
        code = cli_main(
            ["eval", "--checkpoint", str(out / "student.ckpt"), "--out", str(tmp_path)]
        )
        assert code == 0
        result = json.loads((tmp_path / "eval.json").read_text())
        assert result["ppl"] == summary["student_ppl"]
        assert result["config_hash"] == summary["config_hash"]
        assert result["role"] == "student"  # a checkpoint with a calibration

    def test_eval_teacher_checkpoint_float_path(self, tiny_run, tmp_path):
        _, out = tiny_run
        summary = json.loads((out / "summary.json").read_text())
        code = cli_main(
            ["eval", "--checkpoint", str(out / "teacher.ckpt"), "--out", str(tmp_path)]
        )
        assert code == 0
        result = json.loads((tmp_path / "eval.json").read_text())
        assert result["role"] == "teacher"
        assert result["ppl"] == summary["teacher_ppl"]

    def test_the_largest_seed_trains_and_evals_its_own_student(self, tiny_run, tmp_path):
        # a 64-bit mask ran 2**64 as seed 0; the top of the rule survives the echo and draws streams of its own
        cfg_path, out = tiny_run
        top = tmp_path / "top"
        assert cli_main(["train", "--config", str(cfg_path), "--seed", str(2**64 - 1), "--out", str(top)]) == 0
        student, seed0 = (load_checkpoint(run / "student.ckpt") for run in (top, out))
        assert student.config["model"]["seed"] == 2**64 - 1
        assert any(not np.array_equal(student.params[name], w) for name, w in seed0.params.items())
        summary = json.loads((top / "summary.json").read_text())
        assert cli_main(["eval", "--checkpoint", str(top / "student.ckpt"), "--out", str(tmp_path / "ev")]) == 0
        assert json.loads((tmp_path / "ev" / "eval.json").read_text())["ppl"] == summary["student_ppl"]

    @pytest.mark.parametrize("command", ["train", "eval", "inspect", "ablate", "gemm-bench"])
    def test_out_defaults_to_reports(self, command):
        assert squant.cli.build_parser().parse_args([command]).out == "reports"

    def test_eval_writes_to_its_out_not_next_to_the_run(self, tiny_run, tmp_path, monkeypatch):
        _, out = tiny_run
        monkeypatch.chdir(tmp_path)
        assert cli_main(["eval", "--checkpoint", str(out / "student.ckpt")]) == 0
        assert sorted(os.listdir()) == ["reports"] and os.listdir("reports") == ["eval.json"]
        assert cli_main(["eval", "--checkpoint", str(out / "student.ckpt"), "--out", "flag"]) == 0
        assert Path("flag/eval.json").read_bytes() == Path("reports/eval.json").read_bytes()

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_checkpoint_commands_have_no_config_flag(self, capsys, command):
        # the corpus, the split and the model come from the checkpoint's echo
        with pytest.raises(SystemExit) as exc_info:
            cli_main([command, "--config", "e.json"])
        assert exc_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_eval_without_checkpoint_usage_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert cli_main(["eval", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "eval requires --checkpoint\n"
        assert not (tmp_path / "out").exists()

    def test_rerun_bit_identical(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        out2 = tmp_path / "again"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("student.ckpt", "teacher.ckpt", "summary.json", "loss_log.jsonl"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_flag_changes_hash(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        out2 = tmp_path / "seeded"
        assert cli_main(["train", "--config", str(cfg_path), "--seed", "1", "--out", str(out2)]) == 0
        s0 = json.loads((out / "summary.json").read_text())
        s1 = json.loads((out2 / "summary.json").read_text())
        assert s0["config_hash"] != s1["config_hash"]
        assert s0["student_ppl"] != s1["student_ppl"]


class TestInspectCommand:
    def test_dump_files_and_columns(self, tiny_run, tmp_path):
        _, out = tiny_run
        code = cli_main(
            [
                "inspect",
                "--checkpoint", str(out / "student.ckpt"),
                "--teacher", str(out / "teacher.ckpt"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        for name in (
            "qk_variance.csv",
            "qk_histograms.csv",
            "attention_mean.csv",
            "first_col_scores.csv",
            "bit_plans.csv",
        ):
            assert (tmp_path / name).exists(), name
        with open(tmp_path / "bit_plans.csv", newline="") as f:
            plans = list(csv.DictReader(f))
        assert plans
        assert {r["bits"] for r in plans} <= {"4", "8"}

    def test_scores_length_seq_per_layer(self, tiny_run, tmp_path):
        _, out = tiny_run
        assert cli_main(["inspect", "--checkpoint", str(out / "student.ckpt"), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "first_col_scores.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        per_layer = {}
        for r in rows:
            per_layer.setdefault(r["layer"], []).append(float(r["score"]))
        assert set(per_layer) == {"0", "1"}
        for scores in per_layer.values():
            assert len(scores) == 32

    def test_variance_dump_both_columns_populated(self, tiny_run, tmp_path):
        _, out = tiny_run
        code = cli_main(
            [
                "inspect",
                "--checkpoint", str(out / "student.ckpt"),
                "--teacher", str(out / "teacher.ckpt"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "qk_variance.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4  # layers x heads
        for r in rows:
            assert float(r["teacher_q_var"]) > 0
            assert float(r["student_q_var"]) > 0

    def test_explicit_tokens(self, tiny_run, tmp_path):
        _, out = tiny_run
        code = cli_main(
            [
                "inspect",
                "--checkpoint", str(out / "student.ckpt"),
                "--tokens", "1,2,3,4,5,6,7,8",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "bit_plans.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["token_index"] for r in rows} == {str(i) for i in range(8)}

    @pytest.mark.parametrize(
        "tokens",
        [
            "0,1,999",  # past the vocabulary of 64
            "-1,2",
            "a,b",
            "1.5",
            "",
            ",".join(["1"] * 40),  # longer than seq_len 32
        ],
    )
    def test_bad_tokens_usage_error(self, tiny_run, tmp_path, capsys, tokens):
        _, out = tiny_run
        capsys.readouterr()
        argv = ["inspect", "--checkpoint", str(out / "student.ckpt"), f"--tokens={tokens}", "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("inspect: --tokens"), err
        assert not any(tmp_path.iterdir())

    def test_missing_checkpoint_usage_error(self, tmp_path):
        assert cli_main(["inspect", "--checkpoint", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path)]) == 2


class TestAblateCommand:
    def test_tiny_grid_rows_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"steps": 2, "corpus_length": 512, "teacher_steps": 2, "teacher_lr": 0.3, "lr": 0.05})
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["ablate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        with open(out1 / "ablation.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20  # 4 loss cells x 5 quant cells
        assert [(r["loss_cell"], r["quant_cell"]) for r in rows] == [
            (loss, quant) for loss in LOSS_CELLS for quant in QUANT_CELLS
        ]
        for r in rows:
            assert float(r["ppl_mean"]) > 0
            assert float(r["mul_per_token"]) > 0
        assert cli_main(["ablate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()

    def test_rejects_a_seed_key_with_one_line(self, tmp_path, capsys):
        # the grid runs each of its own seeds, so a config seed would change nothing but the config hash
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "steps": 1, "teacher_steps": 1, "corpus_length": 512}))
        capsys.readouterr()
        assert cli_main(["ablate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ") and "seed" in err, err
        assert not (tmp_path / "out").exists()

    def test_runs_the_grid_on_the_loaded_config(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "teacher_lr": 0.2, "heldout_fraction": 0.25, "steps": 3}))
        seen = []
        monkeypatch.setattr(squant.cli, "ablation_run", lambda rc: seen.append(rc) or [])
        assert cli_main(["ablate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert seen == [load_run_config(path)]
        assert (seen[0].teacher_lr, seen[0].heldout_fraction, seen[0].model.steps) == (0.2, 0.25, 3)

    def test_no_seed_flag(self, capsys):
        # the grid runs each of its own seeds, so a seed flag would change nothing but the config hash
        with pytest.raises(SystemExit) as exc_info:
            cli_main(["ablate", "--seed", "1"])
        assert exc_info.value.code == 2
        assert "--seed" in capsys.readouterr().err


DIVERGING = {
    "teacher": {"teacher_lr": 1e9, "teacher_steps": 5, "steps": 2, "corpus_length": 2048},
    "student": {"lr": 1e8, "teacher_steps": 1, "steps": 50, "corpus_length": 2048},
}


class TestDivergence:
    @pytest.mark.parametrize("phase", sorted(DIVERGING))
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_exits_one_with_the_dump_and_no_traceback(self, tmp_path, command, phase):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(DIVERGING[phase]))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = [sys.executable, "-m", "squant.cli", command, "--config", str(path), "--out", str(tmp_path / "out")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr  # the dump alone: no traceback, no numpy warnings
        dump = json.loads(lines[0])
        assert dump["phase"] == phase and "non-finite" in dump["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_a_diverging_run_leaves_no_out_directory(self, tmp_path, capsys, command):
        # the directory is made just before the first artifact, which a diverged run never writes
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 2, "seed": 0, "corpus_length": 512, "teacher_steps": 50, "teacher_lr": 1e30}))
        capsys.readouterr()
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_same_bits_script_hashes_the_fifteen_tiny_artifacts():
    root = Path(__file__).resolve().parents[1]
    script = root / "tools" / "same_bits.py"
    assert runpy.run_path(str(script))["TINY"] == TINY
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, str(script)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 32  # 15 artifacts, combined, 15 masked artifacts, content
    names = [line.split()[0] for line in lines[:15]]
    assert len(set(names)) == 15 and {"train/loss_log.jsonl", "ablate/ablation.csv"} <= set(names)
    assert [line.split()[:2] for line in lines[16:31]] == [["content", name] for name in names]
    text = "".join(line + "\n" for line in lines[:15])
    assert lines[15] == f"combined {hashlib.sha256(text.encode()).hexdigest()}"
    masked = "".join(line.removeprefix("content ") + "\n" for line in lines[16:31])
    assert lines[31] == f"content {hashlib.sha256(masked.encode()).hexdigest()}"
    # a change that moves an artifact on purpose updates these pins and says why in CHANGES.md;
    # a change to the config alone moves combined and keeps content
    assert lines[15] == "combined 278b0f52d55d1f1c34f3ef97b21b25a88aa0cd87f546fd7204ed31c2d2ee9d6c"
    assert lines[31] == "content 2f3e6e502ec29a2ef8b8154fd37eaf08387d4118a6ebb5873585db70dab73806"
