"""The one writer of indented JSON output.

``canonical_json(value)`` gives the bytes of
``json.dumps(value, sort_keys=True, indent=2)``: keys sorted, strings escaped
by ``json.encoder.encode_basestring_ascii``, ``NaN`` / ``Infinity`` /
``-Infinity`` for the non-finite floats, tuples written as lists, and a
``TypeError`` for a value or key that ``json.dumps`` refuses.  Unlike it,
the writer builds each container's text with one ``str.join`` instead of
running the pure-Python chunk generator that ``json`` falls back to whenever
``indent`` is set.  It does not look for reference cycles: a value that
contains itself raises ``RecursionError`` where ``json.dumps`` raises
``ValueError``.  Outputs of the library never contain themselves.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape

_INDENT = "  "


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


# exact scalar types; subclasses take the isinstance chain of _encode
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _key(key: object) -> str:
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        # a number's, a bool's or null's text needs no escaping
        return '"' + _encode(key, "") + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _encode(value: object, newline: str) -> str:
    """``value``'s text; ``newline`` is a line break plus the indent of the
    line that holds it."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is not list and kind is not tuple and kind is not dict:
        # a subclass: json's isinstance checks (bool and None are exact)
        for base in (str, int, float):
            if isinstance(value, base):
                return _SCALARS[base](value)
        if isinstance(value, (list, tuple)):
            kind = list
        elif isinstance(value, dict):
            kind = dict
        else:
            raise TypeError(
                f"Object of type {value.__class__.__name__} is not JSON serializable"
            )
    inner = newline + _INDENT
    if kind is dict:
        if not value:
            return "{}"
        parts = [
            _key(key) + ": " + _encode(v, inner) for key, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if not value:
        return "[]"
    scalars = _SCALARS
    parts = [
        scalars[type(v)](v) if type(v) in scalars else _encode(v, inner)
        for v in value
    ]
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


def canonical_json(value: object) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte."""
    return _encode(value, "\n")
