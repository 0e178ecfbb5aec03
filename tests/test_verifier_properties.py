"""Property: any single-field mutation of a certificate is judged, never raised on."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from boxcert.box import b_alpha, pr_box  # noqa: E402
from boxcert.broadcast import broadcast_scan  # noqa: E402
from boxcert.certificates import (  # noqa: E402
    antirobustness_certificate,
    halfspace_certificate,
    hyperplane_certificate,
    membership_certificate,
    scan_certificate,
    verify_certificate,
)
from boxcert.polytope import (  # noqa: E402
    anti_robustness,
    halfspace_body_equality_check,
    hyperplane_locality_check,
    lr_membership,
)

F = Fraction

# JSON spellings of the replacement values; None deletes the field instead
VALUES = ["null", "true", "0", "-1", "1.5", '""', '"1/0"', '"000"', '"0000"']
VALUES += ["[]", "[1]", "{}", '{"a": 1}', None]

PR, LINE = pr_box(0, 0, 0), b_alpha(F(7, 8))
# one certificate of each kind, as verify-cert reads it back from its file
CERTIFICATES = json.loads(json.dumps({
    "membership": membership_certificate(PR, lr_membership(PR)),
    "antirobustness": antirobustness_certificate(LINE, anti_robustness(LINE)),
    "hyperplane": hyperplane_certificate(hyperplane_locality_check(0, 0, 0)),
    "halfspace": halfspace_certificate(halfspace_body_equality_check(0, 0, 0, samples=1, seed=0)),
    "broadcast": scan_certificate(broadcast_scan([F(3, 4), F(7, 8)])),
}))


def _paths(node, prefix=()):
    """The key path of every field below ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {kind: list(_paths(data)) for kind, data in CERTIFICATES.items()}


def _mutated(node, path, value):
    """A copy of ``node`` with the field at ``path`` set to ``value`` (deleted if None)."""
    head, rest = path[0], path[1:]
    copy = list(node) if isinstance(node, list) else dict(node)
    if rest:
        copy[head] = _mutated(node[head], rest, value)
    elif value is None:
        del copy[head]
    else:
        copy[head] = json.loads(value)
    return copy


mutations = st.sampled_from(sorted(CERTIFICATES)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(PATHS[kind]), st.sampled_from(VALUES))
)


def test_every_kind_verifies_unmutated():
    for kind, data in CERTIFICATES.items():
        assert verify_certificate(data) == (True, []), kind


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@example(("membership", ("kind",), "[]"))
@given(mutations)
def test_single_field_mutation_never_raises(mutation):
    kind, path, value = mutation
    ok, errors = verify_certificate(_mutated(CERTIFICATES[kind], path, value))
    assert isinstance(ok, bool) and isinstance(errors, list)
    assert ok == (not errors)
