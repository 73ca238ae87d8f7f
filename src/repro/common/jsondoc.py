"""One writer for every sorted, indented JSON document the repo emits.

``json.dumps(obj, indent=N, sort_keys=True)`` is the canonical form of
``BENCH_fig5.json``, the result-cache entries and every ``--json``
artifact.  CPython only uses its C encoder when ``indent is None``; any
indented dump runs the pure-Python generator encoder, about 4x slower
than the C one on the Figure 5 document.  :func:`dumps_sorted` renders
the same bytes into one flat list of string pieces, joined once.

Contract: for every input, :func:`dumps_sorted` returns exactly
``json.dumps(obj, indent=indent, sort_keys=True)`` or raises exactly
what that call raises.  Only exact ``dict``/``list``/``tuple`` containers
with exact ``str`` keys and exact ``str``/``int``/``float``/``bool``/
``None`` scalars take the fast path.  Anything else — a non-``str`` key,
a subclass of a container or scalar, an unknown type, a cycle — makes
the fast path give up, and the stdlib call renders (or rejects) the
whole document, so behaviour outside the fast path is the stdlib's by
construction.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

_INF = float("inf")
#: ``float.__repr__`` spellings the stdlib (``allow_nan=True``) renames.
_FLOAT_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Unsupported(Exception):
    """The fast path met an input only the stdlib encoder handles."""


def dumps_sorted(obj, indent) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=True)``, byte for byte."""
    try:
        return _render(obj, indent if isinstance(indent, str) else " " * indent)
    except (_Unsupported, RecursionError, TypeError, ValueError):
        # Unsupported input, a cycle (unbounded recursion), mixed key
        # types that cannot be sorted, an indent that is not a str or an
        # int (None included) or an int too long to print: the stdlib
        # decides what the document is.
        return json.dumps(obj, indent=indent, sort_keys=True)


def _scalar(item) -> str | None:
    """JSON text of an exact scalar; ``None`` for anything else."""
    kind = type(item)
    if kind is str:
        return encode_basestring_ascii(item)
    if kind is int:
        return int.__repr__(item)
    if kind is float:
        text = float.__repr__(item)
        return _FLOAT_SPECIAL.get(text, text)
    if kind is bool:
        return "true" if item else "false"
    if item is None:
        return "null"
    return None


def _render(obj, indent: str) -> str:
    pieces: list[str] = []
    append = pieces.append
    encode = encode_basestring_ascii
    #: key -> its encoded text plus the key separator, once per call.
    keys: dict[str, str] = {}

    def value(item, newline: str) -> None:
        kind = type(item)
        if kind is dict:
            if not item:
                append("{}")
                return
            inner = newline + indent
            lead, sep = "{" + inner, "," + inner
            for key in sorted(item):
                if type(key) is not str:
                    raise _Unsupported
                head = keys.get(key)
                if head is None:
                    head = keys[key] = encode(key) + ": "
                child = item[key]
                # Inline the document's two commonest leaves: an exact
                # int or finite float formats as its repr.
                leaf = type(child)
                if leaf is int or (leaf is float and -_INF < child < _INF):
                    append(f"{lead}{head}{child}")
                else:
                    text = _scalar(child)
                    if text is None:
                        append(lead + head)
                        value(child, inner)
                    else:
                        append(lead + head + text)
                lead = sep
            append(newline + "}")
        elif kind is list or kind is tuple:
            if not item:
                append("[]")
                return
            inner = newline + indent
            lead, sep = "[" + inner, "," + inner
            for child in item:
                text = _scalar(child)
                if text is None:
                    append(lead)
                    value(child, inner)
                else:
                    append(lead + text)
                lead = sep
            append(newline + "]")
        else:
            raise _Unsupported

    text = _scalar(obj)
    if text is not None:
        return text
    value(obj, "\n")
    return "".join(pieces)
