"""Config field rules: each written once, beside its dataclass field, and all checked by ``check_fields``."""

import numbers
import sys
from dataclasses import field, fields


def rule(text: str, test, **field_kwargs):
    """A dataclass field whose values must pass ``test``; ``text`` ends the error "<name> must be ..."."""
    return field(metadata={"rule": (text, test)}, **field_kwargs)


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value, interval: str) -> bool:
    """A finite real, not a bool, inside ``interval``, written like "[0, 1]" or "(0, inf)"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        return False  # the last test also rejects NaN and integers too large for a float
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


def integer(default: int, least: int):
    return rule(f"an integer >= {least}", lambda v: is_int(v) and v >= least, default=default)


def number(default: float, interval: str):
    return rule(f"a finite number in {interval}", lambda v: is_number(v, interval), default=default)


def typed(*types: type, **field_kwargs):
    text = " or ".join("None" if t is type(None) else t.__name__ for t in types)
    return rule(text, lambda v: isinstance(v, types), **field_kwargs)


def check_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose value breaks its rule."""
    for f in fields(obj):
        text, test = f.metadata["rule"]
        value = getattr(obj, f.name)
        if not test(value):
            raise ValueError(f"{f.name} must be {text}, got {value!r}")
