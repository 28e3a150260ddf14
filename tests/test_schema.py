"""Every config field has one rule, and the library and the CLI enforce the same one."""

import json
from dataclasses import fields

import numpy as np
import pytest

from squant.cli import main as cli_main
from squant.model import MicroTransformerConfig
from squant.seeding import substream
from squant.train import RunConfig

NAN, INF = float("nan"), float("inf")
# a recipe train and ablate both finish in seconds (512 tokens leave 448 training and 64 held-out), so a case whose
# key or value the code wrongly accepts fails fast instead of running the default recipe
TINY_RECIPE = {"steps": 1, "teacher_steps": 1, "corpus_length": 512}

# field -> (one accepted value, rejected values)
FIELD_CASES = {
    MicroTransformerConfig: {
        "layers": (1, [0, 2.0, True, "2"]),
        "heads": (1, [0, -2]),
        "dim": (8, [0, None]),
        "vocab": (4, [3, 0]),
        "seq_len": (1, [0, 8.5]),
        "rho": (1, [1.5, -0.1, NAN]),
        "r_E": (0.0, [-0.5, "x"]),
        "r_D": (2, [INF, None, False]),
        "gamma": (0.0, [1.01, NAN]),
        "tau": (0.5, [0, -1.0, INF]),
        "seed": (7, [-1, 1.5, 2**64]),
        "lr": (0.1, [0, NAN, "fast", 10**400]),
        "steps": (0, [-1, True]),
    },
    RunConfig: {
        "model": (MicroTransformerConfig(layers=1), [{"layers": 1}, 5]),
        "corpus": ("tokens.npy", [5, ["tokens.npy"]]),
        "corpus_length": (0, [-1, 256.0, 2**60]),
        "heldout_fraction": (0.5, [0, 1, 1.5, "x"]),
        "teacher_steps": (0, [-5, "ten"]),
        "teacher_lr": (1.0, [0, -0.3, INF]),
    },
}

REJECTED = [
    (cls, name, value) for cls, table in FIELD_CASES.items() for name, (_, bad) in table.items() for value in bad
]
REJECTED_IDS = [f"{cls.__name__}.{name}={value!r:.24}" for cls, name, value in REJECTED]


@pytest.mark.parametrize("cls", list(FIELD_CASES), ids=lambda c: c.__name__)
def test_every_field_has_a_rule_and_a_case(cls):
    assert {f.name for f in fields(cls)} == set(FIELD_CASES[cls])
    assert all("rule" in f.metadata for f in fields(cls))


@pytest.mark.parametrize("cls,name", [(c, n) for c, t in FIELD_CASES.items() for n in t])
def test_accepted_value_builds(cls, name):
    value = FIELD_CASES[cls][name][0]
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls,name,value", REJECTED, ids=REJECTED_IDS)
def test_rejected_value_raises_naming_the_field(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name,value", REJECTED, ids=REJECTED_IDS)
def test_rejected_value_exits_two_through_the_cli(tmp_path, capsys, cls, name, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_RECIPE, name: value}))
    capsys.readouterr()
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags,name",
    [
        (["train", "--seed", "-1"], "seed"),
        (["train", "--seed", str(2**64)], "seed"),
        (["gemm-bench", "--seed", "-1"], "seed"),
        (["gemm-bench", "--shapes", "0x8x8"], "--shapes"),
    ],
    ids=["train-seed", "train-seed-2**64", "gemm-bench-seed", "gemm-bench-shapes"],
)
def test_flags_meet_the_field_rules(tmp_path, capsys, flags, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 1, "teacher_steps": 1, "corpus_length": 256}))
    capsys.readouterr()
    assert cli_main(flags + ["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("act_bits", 8),
        ("literal_distribution_sign", False),
        ("bench_shapes", [[4, 4, 4]]),
        ("checkpoint", "m.ckpt"),
        ("report_dir", "reports"),
        ("weight_bits", 4),
    ],
)
@pytest.mark.parametrize("command", ["train", "gemm-bench", "ablate"])
def test_retired_key_exits_two_naming_it(tmp_path, capsys, command, key, value):
    # rho alone plans the activation bits, every projection weight is 4-bit, the loss sign is fixed, --shapes sets
    # the bench grid and --out the output directory; eval takes no config at all
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_RECIPE, key: value}))
    capsys.readouterr()
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and key in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 1.5, True])
def test_substream_refuses_a_seed_outside_the_rule(seed):
    # a 64-bit mask would give 2**64 the streams of seed 0 and -1 those of 2**64 - 1; int() would give 1.5 seed 1's
    with pytest.raises(ValueError, match="seed"):
        substream(seed, "init.tok_emb")


def test_the_largest_seed_builds_and_draws_its_own_streams():
    assert MicroTransformerConfig(seed=2**64 - 1).seed == 2**64 - 1
    top, zero = (substream(seed, "init.tok_emb").integers(0, 2**32, size=4) for seed in (2**64 - 1, 0))
    assert not np.array_equal(top, zero)
