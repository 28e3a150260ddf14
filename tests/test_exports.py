"""Each module's ``__all__`` names only what the module has, the library keeps no test-only reference, and no
module reads another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
SOURCES = sorted(Path(squant.__file__).parent.glob("*.py"))


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str | None:
    """``a.b.c`` of a chain of attribute reads on a name; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_cross_reads(source: str) -> list[str]:
    """Every underscore name that ``source``, a module of the package, imports from or reads on another module."""
    tree = ast.parse(source)
    modules, found = set(), []  # the local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "squant"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif node.module in (None, "squant"):  # from . import gradtape as gt
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.split(".")[0] == "squant")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner is not None and (owner in modules or owner.split(".")[0] == "squant"):
                found.append(f"{owner}.{node.attr}")
    return found


def test_the_private_read_check_sees_imports_and_attribute_reads():
    source = (
        "from . import gradtape as gt\nfrom .quant import _qmax, quantize\nimport squant.model\n"
        "from numpy import _private_to_numpy\n"
        "def f(self, a):\n    return gt._head_view(a), gt.head_view(a), squant.model._linear_int, self._own, gt.__name__\n"
    )
    assert sorted(private_cross_reads(source)) == ["from .quant import _qmax", "gt._head_view", "squant.model._linear_int"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    # what one module needs of another is public, in its __all__, where perfbench's span tracer sees it
    assert private_cross_reads(path.read_text()) == []
