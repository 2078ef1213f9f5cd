"""Canonical JSON emission, content hashing, and atomic file writes.

Every artifact the package writes goes through `canonical_dumps` so that
identical inputs produce byte-identical files.  The canonical text is
exactly ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)``
plus a newline.  Floats are serialized with Python's shortest round-trip
repr, which preserves full precision.

`json` only uses its C encoder without ``indent``, so `canonical_dumps`
lays out the indentation itself and leaves every item to the C encoder.  A
container whose items are all scalars is one C-encoder call whose item
separator carries the newline and the padding of the container's level.  A
container that holds containers recurses, and the keys and scalar items of
all such containers go through one more C-encoder call per document.
Anything else (non-`str` keys, subclasses, other types) goes to the stdlib
indent encoder and is re-indented.

A `_Fragment` holds text that `canonical_dumps` has already given: a value
laid out at the top level.  Nested `level` deep, a canonical value's text is
its top-level text with every newline followed by `level` more indents
(JSON escapes a newline inside a string), so `_layout` splices a fragment
in re-indented and never lays its value out again.  The stdlib encoder
cannot splice text, so a fragment under a container that goes to it
raises its TypeError.  ``analyze`` digests the operator's canonical text
for ``operator_sha256`` and splices that same text into the report as
``operator``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import secrets

#: Item types the C encoder writes exactly as the indent encoder does.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_INDENT = "  "
#: Stands in the layout for the next scalar text of the document's batch.
_SLOT = None


@functools.lru_cache(maxsize=None)
def _encoder(level: int) -> json.JSONEncoder:
    """C encoder whose item separator starts a line at nesting depth
    `level` + 1, so it writes the items of a container `level` deep."""
    return json.JSONEncoder(
        ensure_ascii=False,
        allow_nan=False,
        check_circular=False,
        separators=(",\n" + _INDENT * (level + 1), ": "),
    )


class _Fragment:
    """A value's text as `canonical_dumps` gave it, spliced in wherever the
    value is nested in dicts with `str` keys, lists and tuples."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _indented(text: str, level: int) -> str:
    # JSON escapes a newline inside a string, so every raw newline starts a
    # line, and shifting each line re-indents the value to `level` exactly.
    return text.replace("\n", "\n" + _INDENT * level)


def _stdlib_dumps(obj, level: int) -> str:
    text = json.dumps(obj, indent=len(_INDENT), ensure_ascii=False, allow_nan=False)
    return _indented(text, level)


def _layout(obj, level: int, parts: list, scalars: list, active: set) -> None:
    """Append the canonical text of `obj`, nested `level` deep, to `parts`,
    with `_SLOT` for each scalar it appends to `scalars`; `active` holds
    the ids of the containers being laid out."""
    kind = type(obj)
    if kind in _SCALARS:
        scalars.append(obj)
        parts.append(_SLOT)
        return
    if kind is dict and set(map(type, obj)) <= _STR:
        items, brackets = obj.values(), "{}"
    elif kind is list or kind is tuple:
        items, brackets = obj, "[]"
    elif kind is _Fragment:
        parts.append(_indented(obj.text[:-1], level))
        return
    else:
        parts.append(_stdlib_dumps(obj, level))
        return
    if not obj:
        parts.append(brackets)
        return
    encoder = _encoder(level)
    separator = encoder.item_separator
    start = brackets[0] + separator[1:]
    end = "\n" + _INDENT * level + brackets[1]
    if set(map(type, items)) <= _SCALARS:
        parts += (start, encoder.encode(obj)[1:-1], end)
        return
    if id(obj) in active:  # a cycle: the stdlib raises its ValueError
        parts.append(_stdlib_dumps(obj, level))
        return
    active.add(id(obj))
    parts.append(start)
    if kind is dict:
        for key, value in obj.items():
            scalars.append(key)
            parts += (_SLOT, ": ")
            _layout(value, level + 1, parts, scalars, active)
            parts.append(separator)
    else:
        for value in obj:
            _layout(value, level + 1, parts, scalars, active)
            parts.append(separator)
    parts[-1] = end
    active.discard(id(obj))


def canonical_dumps(obj) -> str:
    """Serialize `obj` to the canonical JSON text used for all artifacts.

    Key order is the insertion order of the dicts handed in; callers build
    their dicts in the documented field order.  NaN/Inf raise ValueError.
    """
    parts: list = []
    scalars: list = []
    _layout(obj, 0, parts, scalars, set())
    parts.append("\n")
    # No scalar's text holds a raw newline, so the batch splits apart again.
    texts = iter(_encoder(-1).encode(scalars)[1:-1].split(",\n"))
    return "".join([next(texts) if part is _SLOT else part for part in parts])


def _with_member(text: str, key: str, value) -> str:
    """`text`, the canonical text of a non-empty dict, with `key`: `value`
    appended as its last member."""
    return text[: -len("\n}\n")] + "," + canonical_dumps({key: value})[1:]


def canonical_loads(text: str):
    return json.loads(text)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to `path` via a same-directory temp file and rename.
    The file gets the mode `open` gives a new file: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.json")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
