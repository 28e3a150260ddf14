"""Each module's ``__all__`` names only what the module has, and the library keeps no test-only reference."""

import importlib
import pkgutil

import pytest

import squant

import reference

# the op chains and closed forms the tests hold the fused nodes to; they live in tests/reference.py
MOVED = {
    "gradtape": (
        "add_scalar", "mul", "neg", "div", "log", "sqrt", "sum_all", "sum_in_order", "sum_per",
        "variance_per", "clamp_max", "split_heads", "merge_heads", "concat", "softmax_rows",
    ),
    "losses": ("entropy_loss", "attention_alignment", "distribution_loss"),
    "token_bits": ("gather_tokens", "scatter_tokens"),
    "quant": ("dequantize", "round_half_away"),
}
MODULES = sorted(m.name for m in pkgutil.iter_modules(squant.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_references_stay_in_tests(name):
    mod = importlib.import_module(f"squant.{name}")
    # perfbench's span tracer getattr()s every entry, so a stale one would crash a traced run
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
    moved = MOVED.get(name, ())
    assert [n for n in moved if hasattr(mod, n)] == []
    assert all(callable(getattr(reference, n)) for n in moved)


def test_activation_scales_have_one_owner():
    # model.Calibration holds the running max-abs table, folded at model.MOMENTUM
    quant = importlib.import_module("squant.quant")
    assert [n for n in ("EmaState", "check_momentum") if hasattr(quant, n)] == []
