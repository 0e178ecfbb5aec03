"""Box JSON files.

Schema::

    {"parties": n, "inputs": [..], "outputs": [..], "probs": ["num/den", ...]}

with probs flat in the canonical order (input tuples slowest, output
tuples fastest) and rationals spelled as decimal-integer strings joined
by "/".  Readers reject negative or non-normalized tables, JSON booleans
where integers belong, and more than ``MAX_PARTIES`` parties.
"""

from __future__ import annotations

import json
from pathlib import Path

from .box import Box, BoxError, make_box
from .rational import RationalFormatError, format_rational, parse_rational

# twice the 4 parties of the broadcast cut, the most any verb certifies; the
# full non-signalling check passes over the table once per proper party
# subset, 2**n - 2 times, so a few bytes of arity-1 parties could stall it
MAX_PARTIES = 8


class BoxFormatError(BoxError):
    """A box file is structurally malformed; carries a field diagnostic."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def box_to_dict(box: Box) -> dict:
    return {
        "parties": box.party_count,
        "inputs": list(box.input_arity),
        "outputs": list(box.output_arity),
        "probs": [format_rational(p) for p in box.probs],
    }


def box_from_dict(data) -> Box:
    if not isinstance(data, dict):
        raise BoxFormatError("$", "box file must hold a JSON object")
    for key in ("parties", "inputs", "outputs", "probs"):
        if key not in data:
            raise BoxFormatError(key, "missing field")
    parties = data["parties"]
    inputs = data["inputs"]
    outputs = data["outputs"]
    raw = data["probs"]
    if type(parties) is not int:
        raise BoxFormatError("parties", "must be an integer")
    if parties > MAX_PARTIES:
        raise BoxFormatError("parties", f"{parties} is more than the {MAX_PARTIES} allowed")
    for name, lst in (("inputs", inputs), ("outputs", outputs)):
        if not isinstance(lst, list) or not all(type(v) is int for v in lst):
            raise BoxFormatError(name, "must be a list of integers")
    if not isinstance(raw, list):
        raise BoxFormatError("probs", "must be a list of rational strings")
    probs = []
    for i, text in enumerate(raw):
        try:
            probs.append(parse_rational(text))
        except RationalFormatError as exc:
            raise BoxFormatError(f"probs[{i}]", str(exc)) from exc
    return make_box(parties, inputs, outputs, probs)


def save_json(data, path) -> None:
    """Write every JSON file: indent 2, sorted keys, a final newline; digests pin these bytes."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path):
    """Read every JSON file; content that does not parse is a ``BoxFormatError``.

    Bad UTF-8, bad JSON, integers past the digit limit and deep nesting all count.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BoxFormatError("$", f"invalid JSON: {exc}") from exc


def save_box(box: Box, path) -> None:
    save_json(box_to_dict(box), path)


def load_box(path) -> Box:
    return box_from_dict(load_json(path))
