"""Property: a box file or certificate with one field changed exits 0, 1 or 2 from ``main``.

No exception escapes, and exit 2 writes exactly one ``error:`` line to stderr.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boxcert.box import b_alpha, pr_box  # noqa: E402
from boxcert.boxio import box_to_dict  # noqa: E402
from boxcert.cli import main  # noqa: E402
from test_verifier_properties import VALUES, _mutated, _paths  # noqa: E402

F = Fraction

BOX_VERBS = (
    ("validate",),
    ("beta",),
    ("beta", "--rst", "101"),
    ("twirl", "--rs", "01"),
    ("antirobustness",),
    ("antirobustness", "--method", "formula"),
)
CERTIFICATE_VERBS = (("verify-cert",),)


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one ``main`` call; stdout is discarded."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _certificates() -> dict:
    """One certificate per emitting verb, as each writes it to its ``--json`` file."""
    emitters = {
        "antirobustness": lambda box, out: ["antirobustness", box, "--json", out],
        "hyperplane": lambda box, out: ["hyperplane-check", "--rst", "000", "--json", out],
        "scan": lambda box, out: ["scan", "--alpha-grid", "7/8:1:1/8", "--json", out],
    }
    certificates = {}
    with tempfile.TemporaryDirectory() as tmp:
        box = Path(tmp) / "box.json"
        box.write_text(json.dumps(box_to_dict(b_alpha(F(7, 8)))))
        for name, argv in emitters.items():
            out = Path(tmp) / f"{name}.json"
            assert _run(argv(str(box), str(out)))[0] == 0, name
            certificates[name] = json.loads(out.read_text())
    return certificates


SOURCES = {
    "pr-box": (box_to_dict(pr_box(0, 0, 0)), BOX_VERBS),
    "line-box-7/8": (box_to_dict(b_alpha(F(7, 8))), BOX_VERBS),
    "line-box-3/4": (box_to_dict(b_alpha(F(3, 4))), BOX_VERBS),
    **{name: (data, CERTIFICATE_VERBS) for name, data in _certificates().items()},
}
PATHS = {name: list(_paths(data)) for name, (data, _) in SOURCES.items()}

mutations = st.sampled_from(sorted(SOURCES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(PATHS[name]), st.sampled_from(VALUES))
)


def test_every_source_passes_unmutated():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        for name, (data, verbs) in SOURCES.items():
            path.write_text(json.dumps(data))
            for verb, *options in verbs:
                assert _run([verb, str(path), *options]) == (0, ""), (name, verb, options)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutations)
def test_single_field_mutation_exits_cleanly(mutation):
    name, path, value = mutation
    data, verbs = SOURCES[name]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(_mutated(data, path, value)))
        for verb, *options in verbs:
            code, err = _run([verb, str(file), *options])
            assert code in (0, 1, 2)
            if code == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), err
