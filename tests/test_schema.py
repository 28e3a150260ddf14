"""Every config field has one rule, and the library and the CLI enforce the same one."""

import json
from dataclasses import fields

import pytest

from squant.cli import RunConfig, main as cli_main
from squant.model import MicroTransformerConfig

NAN, INF = float("nan"), float("inf")

# field -> (one accepted value, rejected values)
FIELD_CASES = {
    MicroTransformerConfig: {
        "layers": (1, [0, 2.0, True, "2"]),
        "heads": (1, [0, -2]),
        "dim": (8, [0, None]),
        "vocab": (4, [3, 0]),
        "seq_len": (1, [0, 8.5]),
        "weight_bits": (8, [2, 8.0, "8"]),
        "act_bits": (4, [16, 4.0, "8", "Adaptive"]),
        "rho": (1, [1.5, -0.1, NAN]),
        "r_E": (0.0, [-0.5, "x"]),
        "r_D": (2, [INF, None, False]),
        "gamma": (0.0, [1.01, NAN]),
        "tau": (0.5, [0, -1.0, INF]),
        "seed": (7, [-1, 1.5]),
        "lr": (0.1, [0, NAN, "fast", 10**400]),
        "steps": (0, [-1, True]),
        "literal_distribution_sign": (True, [3, "true", None]),
    },
    RunConfig: {
        "model": (MicroTransformerConfig(layers=1), [{"layers": 1}, 5]),
        "corpus": ("tokens.npy", [5, ["tokens.npy"]]),
        "corpus_length": (0, [-1, 256.0]),
        "heldout_fraction": (0.5, [0, 1, 1.5, "x"]),
        "teacher_steps": (0, [-5, "ten"]),
        "teacher_lr": (1.0, [0, -0.3, INF]),
        "checkpoint": ("m.ckpt", [5, False]),
        "report_dir": ("out", [5, None]),
        "bench_shapes": ([[4, 4, 4]], [[], [[8, 8]], [[0, 8, 8]], [[8.5, 8, 8]], "8x8x8"]),
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
    path.write_text(json.dumps({name: value}))
    capsys.readouterr()
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags,name",
    [
        (["train", "--seed", "-1"], "seed"),
        (["ablate", "--seed", "-1"], "seed"),
        (["gemm-bench", "--seed", "-1"], "seed"),
        (["gemm-bench", "--shapes", "0x8x8"], "bench_shapes"),
    ],
)
def test_flags_meet_the_field_rules(tmp_path, capsys, flags, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 1, "teacher_steps": 1, "corpus_length": 256, "bench_shapes": [[4, 4, 4]]}))
    capsys.readouterr()
    assert cli_main(flags + ["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "out").exists()
