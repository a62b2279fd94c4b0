"""One checker for every JSON payload that crosses a trust boundary.

Wire requests, snapshots and cache files are declared once, beside the code
that writes them, and :func:`check` walks a payload against its declaration.
A dict is an object with exactly its keys (``"name?"`` optional, an ``...``
key admitting any other key with the value declared for it); a one-item
list is an array of that item; ``...`` is any value; anything else is a
leaf (:func:`integer`, :func:`number`, :data:`boolean`, :data:`string`,
:func:`one_of`, :class:`nullable`, or a :class:`Leaf` made for one field).
A JSON integer is an ``int`` that is not a ``bool``, and a JSON number an
``int`` or ``float`` that is not a ``bool`` and fits a float.  A mismatch,
like a broken cross-field rule its caller keeps as code, raises the one
error form of :func:`fail`: ``'<path>' must be <what>, got <value>``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

__all__ = ["Leaf", "boolean", "check", "fail", "integer", "join", "nullable",
           "number", "one_of", "short", "string"]


def short(value: Any, limit: int = 120) -> str:
    """``repr(value)``, cut to ``limit`` characters for an error message."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def fail(path: str, what: str, value: Any) -> None:
    """Raise ``ValueError`` for the field at ``path`` (``""``: the payload)."""
    field = f"'{path}'" if path else "the payload"
    raise ValueError(f"{field} must be {what}, got {short(value)}")


def join(path: str, key: str) -> str:
    """The path of ``key`` inside the object at ``path``."""
    return f"{path}.{key}" if path else key


class Leaf(NamedTuple):
    """A JSON value ``accepts`` returns true for, described as ``what``."""

    what: str
    accepts: Callable[[Any], bool]


class nullable(NamedTuple):
    """``null`` or a value matching ``declaration``."""

    declaration: Any


def integer(low: int | None = None, high: int | None = None) -> Leaf:
    """A JSON integer in ``[low, high]``; ``None`` leaves a side open."""
    lo = -math.inf if low is None else low
    hi = math.inf if high is None else high
    if high is not None:
        what = f"an integer in [{low}, {high}]"
    else:
        what = "an integer" if low is None else f"an integer >= {low}"
    return Leaf(what, lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi)


def number(at_least: float | None = None, above: float | None = None) -> Leaf:
    """A JSON number; with a bound, a finite one ``>= at_least`` or ``> above``."""

    def accepts(value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            x = float(value)
        except OverflowError:
            return False
        if at_least is None and above is None:
            return True
        return math.isfinite(x) and (x > above if at_least is None else x >= at_least)

    if at_least is None and above is None:
        return Leaf("a number", accepts)
    bound = f"> {above}" if at_least is None else f">= {at_least}"
    return Leaf(f"a finite number {bound}", accepts)


def one_of(*options: Any) -> Leaf:
    """A value matching a :class:`Leaf` among ``options`` or equal, type
    included, to one of the others."""
    leaves = [option for option in options if isinstance(option, Leaf)]
    literals = [option for option in options if not isinstance(option, Leaf)]
    whats = [leaf.what for leaf in leaves]
    if literals:
        whats.append("one of " + ", ".join(map(repr, literals)))

    def accepts(value: Any) -> bool:
        for literal in literals:
            if type(value) is type(literal) and value == literal:
                return True
        for leaf in leaves:
            if leaf.accepts(value):
                return True
        return False

    return Leaf(" or ".join(whats), accepts)


boolean = Leaf("a boolean", lambda v: isinstance(v, bool))
string = Leaf("a string", lambda v: isinstance(v, str))


def check(value: Any, declaration: Any, path: str = "") -> None:
    """Raise ``ValueError`` naming the first field of ``value`` that does not
    match ``declaration``.  A leaf inside an object or array is checked in
    line, so no path is built unless it fails."""
    if type(declaration) is nullable:
        if value is None:
            return
        declaration = declaration.declaration
    if declaration is ...:
        return
    if type(declaration) is Leaf:
        if not declaration.accepts(value):
            fail(path, declaration.what, value)
    elif isinstance(declaration, dict):
        if not isinstance(value, dict):
            fail(path, "an object", value)
        matched = 0
        for key, item in declaration.items():
            if key is ...:
                continue
            name = key.rstrip("?")
            if name in value:
                matched += 1
                if type(item) is not Leaf:
                    check(value[name], item, join(path, name))
                elif not item.accepts(value[name]):
                    fail(join(path, name), item.what, value[name])
            elif name == key:
                raise ValueError(
                    f"'{join(path, name)}' must be present, got an object that has no {name}"
                )
        rest = declaration.get(..., None)
        # the undeclared keys of an object open to anything need no walk
        for key in value if matched < len(value) and rest is not ... else ():
            if key not in declaration and f"{key}?" not in declaration:
                if rest is None:
                    fail(join(path, key), "absent", value[key])
                check(value[key], rest, join(path, key))
    else:
        if not isinstance(value, list):
            fail(path, "an array", value)
        item = declaration[0]
        for i, entry in enumerate(value):
            if type(item) is not Leaf:
                check(entry, item, f"{path}[{i}]")
            elif not item.accepts(entry):
                fail(f"{path}[{i}]", item.what, entry)
