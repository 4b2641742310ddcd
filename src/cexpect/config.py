"""Reading JSON configs into models.

A config is checked by building its models: the constructors own every
range and cross-field check and raise DomainError or ConstructionError
naming the parameter at fault.  `Fields` adds only the type checks that
float() and int() cannot express (missing key, not a number, bool, not an
integer, not finite) and the keys that no read took (a misspelt key would
otherwise leave its default in force), and joins each error onto its config
path, so one read reports every field at fault.  A regression table that
does not converge is at fault in the model it belongs to: `table` reports
its NumericalError at that model's field.  Reading never simulates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    NumericalError,
    UnsupportedModelError,
)

_REQUIRED = object()  # default of a key that must be present
_INVALID = object()  # stands in for a field that failed its type check


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def render(self):
        return f"{self.field}: {self.message}"


def _join(path, key):
    return f"{path}.{key}" if path and key and not key.startswith("[") else path + key


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _leaves(value):
    return [y for x in value for y in _leaves(x)] if isinstance(value, list) else [value]


def _is_finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


class Fields:
    """One config object being read; paths are relative to it.

    Each read records a Diagnostic for a field at fault and goes on, so one
    pass finds every fault, and `close` raises them together as a
    ConfigError, with an "unknown key" Diagnostic for each key of the object
    that no read took.  A field that failed its type check stops the `build`
    that takes it; a sub-model that failed is None, and a constructor error
    about that None repeats diagnostics already recorded, so it is dropped.
    """

    def __init__(self, cfg, what="an object"):
        if not isinstance(cfg, dict):
            raise ConfigError([Diagnostic("", f"must be {what}, got {cfg!r}")])
        self.cfg = cfg
        self.diags = []
        self.read = set()

    def fail(self, field, message):
        diag = Diagnostic(field, message)
        if diag not in self.diags:
            self.diags.append(diag)
        return _INVALID

    def _raw(self, key, default):
        self.read.add(key)
        if key in self.cfg:
            return self.cfg[key]
        return self.fail(key, "missing required key") if default is _REQUIRED else default

    def number(self, key, default=_REQUIRED, integer=False):
        """A finite float (an int if `integer`), or `default` when absent (or
        null, where the default is null)."""
        value = self._raw(key, default)
        if value is _INVALID or value is default:
            return value
        if not _is_number(value):
            return self.fail(key, f"must be a number, got {value!r}")
        if integer and not isinstance(value, int):
            return self.fail(key, f"must be an integer, got {value!r}")
        if not _is_finite(value):
            return self.fail(key, f"must be finite, got {value!r}")
        return value if integer else float(value)

    def integer(self, key, default=_REQUIRED):
        return self.number(key, default, integer=True)

    def choice(self, key, options, default=_REQUIRED):
        """One of `options`, of the same type; None when it is not, and then
        no key of the object is unknown, since the choice decides which are
        read."""
        value = self._raw(key, default)
        if any(type(value) is type(o) and value == o for o in options):
            return value
        self.read.update(self.cfg)
        if value is not _INVALID:
            self.fail(key, f"must be one of {'/'.join(map(str, options))}, got {value!r}")
        return None

    def array(self, key):
        """A rectangular, possibly nested, list of finite numbers, as an array."""
        value = self._raw(key, _REQUIRED)
        if value is _INVALID:
            return value
        leaves = _leaves(value)
        if not isinstance(value, list) or not all(_is_number(x) and _is_finite(x) for x in leaves):
            return self.fail(key, f"must be a list of finite numbers, got {value!r}")
        try:
            return np.array(value, dtype=float)
        except ValueError:  # ragged
            return self.fail(key, f"must be a rectangular list of numbers, got {value!r}")

    def index_lists(self, key):
        """A list of lists of integers."""
        value = self._raw(key, _REQUIRED)
        if value is _INVALID:
            return value
        if not isinstance(value, list):
            return self.fail(key, f"must be a list of index lists, got {value!r}")
        for pos, item in enumerate(value):
            if not (isinstance(item, list) and all(_is_index(i) for i in item)):
                return self.fail(f"{key}[{pos}]", f"must be a list of integers, got {item!r}")
        return value

    def model(self, key, builder, default=_REQUIRED):
        """builder(cfg[key]), its diagnostics moved under `key`; None if it failed."""
        value = self._raw(key, default)
        if value is _INVALID:
            return None
        return self._built(key, builder, value) if key in self.cfg else value

    def models(self, key, builder):
        """builder(item) for each item of the nonempty list cfg[key]."""
        value = self._raw(key, _REQUIRED)
        if value is not _INVALID and not (isinstance(value, list) and value):
            self.fail(key, f"must be a nonempty list, got {value!r}")
        if not isinstance(value, list):
            return None
        return [self._built(f"{key}[{pos}]", builder, item) for pos, item in enumerate(value)]

    def merge(self, builder):
        """builder(the keys of this object that no read has taken so far),
        its diagnostics kept at their paths; those keys are then read here,
        and the builder names any of them it does not read."""
        rest = {key: value for key, value in self.cfg.items() if key not in self.read}
        self.read.update(rest)
        return self._built("", builder, rest)

    def _built(self, field, builder, value):
        try:
            return builder(value)
        except ConfigError as exc:
            for diag in exc.diagnostics:
                self.fail(_join(field, diag.field), diag.message)
            return None

    def build(self, ctor, keys=None, **kwargs):
        """ctor(**kwargs); on a DomainError, ConstructionError or
        UnsupportedModelError, None and a Diagnostic at the parameter it
        names (renamed to its config key by `keys`)."""
        if any(value is _INVALID for value in kwargs.values()):
            return None
        try:
            return ctor(**kwargs)
        except (DomainError, ConstructionError, UnsupportedModelError) as exc:
            if exc.param in kwargs and kwargs[exc.param] is None:
                return None
            self.fail((keys or {}).get(exc.param, exc.param) or "", str(exc))
            return None

    def table(self, key, name, tabulate, *args):
        """tabulate(*args), the table `name` of the model read at `key`; on
        a NumericalError, a Diagnostic at `key` (at its parameter, if the
        error names one) that names the table, and a failed field, which
        stops the `build` that takes it."""
        try:
            return tabulate(*args)
        except NumericalError as exc:
            return self.fail(_join(key, exc.param or ""), f"{name} table: {exc}")

    def close(self, value):
        """`value`, or a ConfigError with every diagnostic recorded."""
        for key in self.cfg:
            if key not in self.read:
                self.fail(key, "unknown key")
        if self.diags:
            raise ConfigError(self.diags)
        return value
