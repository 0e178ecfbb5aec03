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

from boxcert.box import b_alpha, pr_box, uniform_box  # noqa: E402
from boxcert.boxio import box_to_dict, save_box  # noqa: E402
from boxcert.cli import main  # noqa: E402
from test_verifier_properties import VALUES, _mutated, _paths  # noqa: E402

F = Fraction

BOX_VERBS = (
    ("validate",),
    ("beta",),
    ("beta", "--rst", "101"),
    ("twirl", "--rs", "01"),
    ("antirobustness",),
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


# Random command lines: each verb with its own options, mostly well-formed, and
# now and then a foreign option, a bad value or a stray word.  Every count is
# at most 16 and every well-formed grid has at most 9 points, so no call runs
# long; --full is left out, because one 4-party oracle solve takes tens of seconds.
_GRIDS = st.tuples(
    st.sampled_from(("3/4", "25/32", "7/8", "1")),
    st.sampled_from(("1/8", "1/16", "1/32")),
    st.integers(0, 8),
).map(lambda g: "%s:%s:%s" % (g[0], min(F(g[0]) + g[2] * F(g[1]), 1), g[1]))
_BAD_GRIDS = ("1:0:1/8", "0:1:0", "0:1:-1/8", "a:b:c", "1/2:1", "0:1:1/100000", "0:1/0:1",
              "0:1:1/8", "1:9/8:1/8")
_COUNTS = st.integers(0, 16).map(str)
_BAD_COUNTS = st.sampled_from(("-1", "x", "1.5", "", "10001"))
_OPTIONS = {
    "--rst": st.sampled_from(("000", "011", "101", "111")),
    "--rs": st.sampled_from(("00", "01", "10", "11")),
    "--samples": _COUNTS,
    "--seed": _COUNTS | st.just("12345678901234567890"),
    "--alpha": st.sampled_from(("13/16", "4/5", "3/4", "25/32", "7/8", "1")),
    "--alpha-grid": _GRIDS,
    "--json": st.just("out.json"),
}
_BAD_VALUES = {
    "--rst": st.sampled_from(("01", "0a1", "", "1111")),
    "--rs": st.sampled_from(("0", "2x", "")),
    "--samples": _BAD_COUNTS,
    "--seed": _BAD_COUNTS | st.just("-5"),
    "--alpha": st.sampled_from(("1/0", "x", "-1/2", "1/2", "3/2", "0.5")),
    "--alpha-grid": st.sampled_from(_BAD_GRIDS),
    "--json": st.sampled_from((".", "missing/out.json")),
}
# per verb: whether it reads an input file, its required options, its other options
_VERBS = {
    "validate": (True, (), ("--json",)),
    "beta": (True, (), ("--rst", "--json")),
    "twirl": (True, ("--rs",), ("--json",)),
    "antirobustness": (True, (), ("--json",)),
    "hyperplane-check": (False, (), ("--rst", "--samples", "--seed", "--json")),
    "broadcast-check": (False, ("--alpha",), ("--json",)),
    "scan": (False, ("--alpha-grid",), ("--json",)),
    "verify-cert": (True, (), ()),
}
_BOXES = ("line.json", "pr.json", "local.json", "four.json")
_CERTIFICATES = ("cert.json", "half.json", "out.json")
_INPUTS = _BOXES + _CERTIFICATES + ("list.json", "garbage.json", "missing.json", ".")
_FILES = set(_INPUTS) | {"missing/out.json"}  # names inside the work directory


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Box files, certificates and unreadable inputs for the random command lines."""
    tmp = tmp_path_factory.mktemp("argv")
    for name, box in (("line", b_alpha(F(7, 8))), ("pr", pr_box(0, 0, 0)),
                      ("local", b_alpha(F(3, 4))), ("four", uniform_box(4))):
        save_box(box, tmp / f"{name}.json")
    emit = {
        "cert.json": ["antirobustness", str(tmp / "line.json")],
        "half.json": ["hyperplane-check", "--rst", "000", "--samples", "2"],
    }
    for name, argv in emit.items():
        assert _run(argv + ["--json", str(tmp / name)])[0] == 0
    (tmp / "list.json").write_text("[]")
    (tmp / "garbage.json").write_bytes(b"\xff{")
    return tmp


@st.composite
def command_lines(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    takes_input, required, optional = _VERBS[verb]
    argv = [verb]
    if takes_input and draw(st.integers(0, 9)):
        usual = _CERTIFICATES if verb == "verify-cert" else _BOXES
        argv.append(draw(st.sampled_from(usual if draw(st.integers(0, 4)) else _INPUTS)))
    for option in required + optional:
        if draw(st.integers(0, 9)) < (9 if option in required else 5):
            bad = draw(st.integers(0, 9)) == 0
            argv += [option, draw((_BAD_VALUES if bad else _OPTIONS)[option])]
    if draw(st.integers(0, 4)) == 0:  # a stray token
        stray = st.sampled_from(sorted(_OPTIONS) + ["-h", "--bogus", "frobnicate", *_INPUTS])
        stray = stray | st.text(alphabet="abc-:/.", max_size=6)
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_random_command_line_exits_cleanly(workdir, argv):
    argv = [str(workdir / a) if a in _FILES else a for a in argv]
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)
