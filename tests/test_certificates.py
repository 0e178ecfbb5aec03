"""Certificate serialization and independent re-verification."""

import copy
import dataclasses
import hashlib
import json
import os
from fractions import Fraction
from itertools import islice

import pytest

from boxcert import certificates, polytope
from boxcert.box import b_alpha, mix, pr_box, tensor
from boxcert.broadcast import ScanReport, broadcast_scan
from boxcert.cli import main
from boxcert.certificates import (
    antirobustness_certificate,
    halfspace_certificate,
    hyperplane_certificate,
    membership_certificate,
    outcome_from_dict,
    outcome_to_dict,
    save_certificate,
    scan_certificate,
    verify_certificate,
)
from boxcert.polytope import (
    BROADCAST_CUT,
    anti_robustness,
    halfspace_body_equality_check,
    halfspace_draws,
    hyperplane_locality_check,
    lr_membership,
)
from boxcert.sampling import random_box, random_ns_box, rng_from_seed

F = Fraction


def roundtrip(data):
    return json.loads(json.dumps(data, sort_keys=True))


class TestOutcomeSerialization:
    def test_round_trip(self):
        cert = lr_membership(b_alpha(F(3, 4)))
        again = outcome_from_dict(roundtrip(outcome_to_dict(cert.outcome)))
        assert again == cert.outcome

    def test_farkas_round_trip(self):
        cert = lr_membership(pr_box(0, 0, 0))
        again = outcome_from_dict(roundtrip(outcome_to_dict(cert.outcome)))
        assert again == cert.outcome


class TestMembershipCertificates:
    def test_member_verifies(self):
        box = b_alpha(F(3, 4))
        data = roundtrip(membership_certificate(box, lr_membership(box)))
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_non_member_verifies(self):
        box = pr_box(0, 0, 0)
        data = roundtrip(membership_certificate(box, lr_membership(box)))
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_mutated_weight_fails(self):
        box = b_alpha(F(3, 4))
        data = roundtrip(membership_certificate(box, lr_membership(box)))
        bad = copy.deepcopy(data)
        name = next(iter(bad["result"]["weights"]))
        bad["result"]["weights"][name] = "1/1000"
        bad["outcome"]["witness"][f"w:{name}"] = "1/1000"
        ok, _ = verify_certificate(bad)
        assert not ok

    def test_mutated_farkas_fails(self):
        box = pr_box(0, 0, 0)
        data = roundtrip(membership_certificate(box, lr_membership(box)))
        bad = copy.deepcopy(data)
        key = next(iter(bad["outcome"]["farkas"]))
        value = Fraction(bad["outcome"]["farkas"][key])
        bad["outcome"]["farkas"][key] = f"{value.numerator * 1000 + 1}/{value.denominator * 1000}"
        ok, _ = verify_certificate(bad)
        assert not ok


class TestPinnedMembershipCertificates:
    """Membership certificate bytes, which no CLI verb writes, stay byte-identical."""

    @pytest.mark.parametrize(
        "box, digest",
        [
            # local and fully NS: weights from the ray-shooting decomposition, no solve
            (b_alpha(F(3, 4)), "0f516ebc9c155d6c006e55f8945b0d461207203de527f7b161d8801d4f8b3f2f"),
            # an interior local box (beta* = 7/32), decomposed over 9 vertices
            (
                random_ns_box(rng_from_seed(0)),
                "9b2e9e33264e23d8e8fbfd54fff814928fa01a4bd2d654ff125a09a6eb2f98b7",
            ),
            # non-local and fully NS: the CHSH facet's Farkas vector, no solve
            (pr_box(0, 0, 0), "9551cddb69e52a2dfcc44453db2f69961d1a27f337980264d2f592e1abaa8ae9"),
            # signalling: solved, Farkas vector
            (
                random_box(rng_from_seed(3)),
                "418115ab8fc6f970bc7bef6e0b5f1bbb0b3dd58698f56216545a73ad54885a38",
            ),
        ],
        ids=["b_alpha(3/4)", "random_ns_box(seed 0)", "pr_box(0,0,0)", "random_box(seed 3)"],
    )
    def test_sha256(self, box, digest, tmp_path):
        path = tmp_path / "membership.json"
        save_certificate(membership_certificate(box, lr_membership(box)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestAntiRobustnessCertificates:
    def test_verifies(self):
        rng = rng_from_seed(80)
        for _ in range(3):
            box = random_ns_box(rng)
            data = roundtrip(antirobustness_certificate(box, anti_robustness(box)))
            ok, errors = verify_certificate(data)
            assert ok, errors

    def test_mutated_value_fails(self):
        box = b_alpha(F(7, 8))
        data = roundtrip(antirobustness_certificate(box, anti_robustness(box)))
        bad = copy.deepcopy(data)
        bad["result"]["value"] = "857/1000"
        ok, _ = verify_certificate(bad)
        assert not ok

    def test_weights_failing_the_admixture_inequality(self):
        # one deterministic vertex is a convex combination, but L - (6/7)*box has negative entries
        box = b_alpha(F(7, 8))
        data = roundtrip(antirobustness_certificate(box, anti_robustness(box)))
        data["result"]["weights"] = {"det_00_00": "1/1"}
        assert verify_certificate(data) == (
            False,
            ["local witness fails the admixture inequality"],
        )

    def test_mutated_dual_fails(self):
        box = b_alpha(F(7, 8))
        data = roundtrip(antirobustness_certificate(box, anti_robustness(box)))
        bad = copy.deepcopy(data)
        key = next(iter(bad["outcome"]["dual"]))
        bad["outcome"]["dual"][key] = "1/1000"
        ok, _ = verify_certificate(bad)
        assert not ok


class TestHyperplaneCertificates:
    def test_verifies(self):
        data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_mutated_ray_weight_fails(self):
        data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
        bad = copy.deepcopy(data)
        bad["result"]["points"][0]["p"] = "999/1000"
        ok, _ = verify_certificate(bad)
        assert not ok


class TestHalfspaceCertificates:
    def test_verifies(self):
        report = halfspace_body_equality_check(0, 0, 0, samples=20, seed=3)
        data = roundtrip(halfspace_certificate(report))
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_mutated_decomposition_fails(self):
        report = halfspace_body_equality_check(0, 0, 0, samples=10, seed=3)
        data = roundtrip(halfspace_certificate(report))
        bad = copy.deepcopy(data)
        row = bad["result"]["half_decompositions"][0]
        name = next(iter(row))
        row[name] = "1/1000"
        ok, _ = verify_certificate(bad)
        assert not ok


class TestBroadcastCertificates:
    def test_scan_verifies(self):
        report = broadcast_scan([F(3, 4), F(7, 8), F(1)])
        data = roundtrip(scan_certificate(report))
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_mutated_projection_farkas_fails(self):
        report = broadcast_scan([F(7, 8)])
        data = roundtrip(scan_certificate(report))
        bad = copy.deepcopy(data)
        farkas = bad["result"]["rows"][0]["projection"]["outcome"]["farkas"]
        key = next(iter(farkas))
        value = Fraction(farkas[key])
        farkas[key] = f"{value.numerator * 1000 + 1}/{value.denominator * 1000}"
        ok, _ = verify_certificate(bad)
        assert not ok

    def test_unknown_kind_rejected(self):
        ok, errors = verify_certificate({"kind": "mystery"})
        assert not ok and errors


class TestMalformedInputsRejected:
    """Bad embedded data gives (False, reasons), never an exception."""

    def antirobustness_data(self):
        box = b_alpha(F(7, 8))
        return roundtrip(antirobustness_certificate(box, anti_robustness(box)))

    def test_scan_row_alpha_out_of_range(self):
        data = roundtrip(scan_certificate(broadcast_scan([F(13, 16)])))
        data["result"]["rows"][0]["alpha"] = "1/2"
        ok, errors = verify_certificate(data)
        assert not ok and "RangeError" in errors[0]

    def test_embedded_box_not_normalized(self):
        data = self.antirobustness_data()
        probs = data["inputs"]["box"]["probs"]
        assert probs[0] == "7/16"
        probs[0] = "13/48"  # input row (0, 0) now sums to 5/6
        ok, errors = verify_certificate(data)
        assert not ok and "NotNormalized" in errors[0]

    def test_embedded_box_probs_not_a_list(self):
        data = self.antirobustness_data()
        data["inputs"]["box"]["probs"] = "x"
        ok, errors = verify_certificate(data)
        assert not ok and "BoxFormatError" in errors[0]

    def test_embedded_box_with_too_many_parties(self):
        data = self.antirobustness_data()
        data["inputs"]["box"] = {"parties": 9, "inputs": [1] * 9, "outputs": [1] * 9,
                                 "probs": ["1"]}
        ok, errors = verify_certificate(data)
        assert not ok and "BoxFormatError('parties:" in errors[0]

    @pytest.mark.parametrize("version", [99, 0, "1", True, None])
    def test_unsupported_format_rejected(self, version):
        data = self.antirobustness_data()
        assert verify_certificate(data)[0]
        data["format"] = version
        ok, errors = verify_certificate(data)
        assert not ok and "format" in errors[0]

    def test_missing_format_rejected(self):
        data = self.antirobustness_data()
        del data["format"]
        assert not verify_certificate(data)[0]

    @pytest.mark.parametrize("kind", [[], {}])
    def test_unhashable_kind_rejected(self, kind):
        ok, errors = verify_certificate({"kind": kind, "format": 1})
        assert (ok, errors) == (False, [f"unknown certificate kind {kind!r}"])

    @pytest.mark.parametrize("value", [[], "x"])
    @pytest.mark.parametrize(
        "section, field",
        [("result", "weights"), ("outcome", "witness"), ("outcome", "dual"), ("outcome", "farkas")],
    )
    def test_non_object_field_rejected(self, section, field, value):
        data = self.antirobustness_data()
        data[section][field] = value
        ok, errors = verify_certificate(data)
        name = field if section == "result" else f"outcome.{field}"
        assert (ok, errors) == (False, [f"malformed certificate: TypeError('{name} is not a JSON object')"])

    @pytest.mark.parametrize("full", [1, "x", [1], True, {"feasible": True}])
    def test_malformed_full_row_builds_no_lp(self, monkeypatch, full):
        import boxcert.certificates

        builds = []
        monkeypatch.setattr(
            boxcert.certificates, "full_broadcast_lp", lambda instance: builds.append(instance)
        )
        data = roundtrip(scan_certificate(broadcast_scan([F(7, 8)])))
        data["result"]["rows"][0]["full"] = full
        if isinstance(full, dict):
            reason = "KeyError('outcome')"
        else:
            reason = "TypeError('rows[0].full is not a JSON object')"
        assert verify_certificate(data) == (False, [f"malformed certificate: {reason}"])
        assert builds == []


class TestRenamedRowKeys:
    """A dual or Farkas key that names no row of the rebuilt LP fails verify-cert."""

    @staticmethod
    def certificate(kind):
        if kind == "dual":  # non-local: the CHSH facet's dual, bound rows included
            box = b_alpha(F(7, 8))
            return roundtrip(antirobustness_certificate(box, anti_robustness(box)))
        box = pr_box(0, 0, 0)  # the CHSH facet's Farkas vector, bound rows included
        return roundtrip(membership_certificate(box, lr_membership(box)))

    @pytest.mark.parametrize("kind", ["dual", "farkas"])
    @pytest.mark.parametrize("renamed", ["ub:<same var>", "xx:0"])
    def test_renamed_key_exits_one(self, kind, renamed, tmp_path, capsys):
        data = self.certificate(kind)
        rows = data["outcome"][kind]
        key = next(k for k in rows if k.startswith("lb:"))
        new = "ub:" + key[3:] if renamed.startswith("ub:") else renamed
        data["outcome"][kind] = {new if k == key else k: v for k, v in rows.items()}
        assert verify_certificate(data)[0] is False
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(data))
        assert main(["verify-cert", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "Traceback" not in captured.out + captured.err


def _membership_renamed():
    box = b_alpha(F(3, 4))
    data = roundtrip(membership_certificate(box, lr_membership(box)))
    weights = data["result"]["weights"]
    weights["det_11_01"] = weights.pop("det_00_00")
    return data


def _hyperplane_renamed():
    data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
    weights = data["result"]["points"][0]["weights"]
    weights["det_11_11"] = weights.pop("det_00_00")
    return data


def _halfspace_swapped():
    report = halfspace_body_equality_check(0, 0, 0, samples=2, seed=1)
    data = roundtrip(halfspace_certificate(report))
    weights = data["result"]["half_decompositions"][0]
    first, second = list(weights)[:2]
    weights[first], weights[second] = weights[second], weights[first]
    return data


class TestTamperedWeights:
    """Well-formed weights that rebuild another box fail verify-cert by substitution."""

    @pytest.mark.parametrize(
        "tampered, message",
        [
            (_membership_renamed, "weights do not reconstruct the box"),
            (_hyperplane_renamed, "det_00_00: membership weights do not reconstruct the point"),
            (_halfspace_swapped, "halfspace sample 0: weights do not reconstruct the sample"),
        ],
    )
    def test_exits_one(self, tampered, message, tmp_path, capsys):
        path = tmp_path / "tampered.json"
        save_certificate(tampered(), path)
        assert main(["verify-cert", str(path)]) == 1
        assert f"  {message}\n" in capsys.readouterr().out


class TestDroppedRowsAndMisstatedValues:
    """A truncated or emptied sample list or a wrong stated p_alpha exits 1 with its own message."""

    @pytest.mark.parametrize(
        "field, message",
        [
            ("hull_weights", "hull sample count mismatch"),
            ("half_decompositions", "halfspace sample count mismatch"),
        ],
    )
    def test_dropped_sample_row(self, field, message, tmp_path, capsys):
        path = tmp_path / "hyperplane.json"
        argv = ["hyperplane-check", "--rst", "000", "--samples", "2", "--json", str(path)]
        assert main(argv) == 0
        data = json.loads(path.read_text())
        assert [item["kind"] for item in data] == ["hyperplane", "halfspace"]
        del data[1]["result"][field][0]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().out == (
            "certificate 0 (hyperplane): verified\n"
            f"certificate 1 (halfspace): FAILED\n  {message}\n"
        )

    def test_emptied_decomposition(self, tmp_path, capsys):
        # an empty map is what the builder writes for a sample it cannot decompose
        path = tmp_path / "hyperplane.json"
        argv = ["hyperplane-check", "--rst", "000", "--samples", "2", "--seed", "1"]
        assert main(argv + ["--json", str(path)]) == 0
        data = json.loads(path.read_text())
        result = data[1]["result"]
        assert all(result["half_decompositions"]) and result["all_pass"] is True
        result["half_decompositions"][0] = {}
        result["all_pass"] = False
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().out == (
            "certificate 0 (hyperplane): verified\n"
            "certificate 1 (halfspace): FAILED\n  halfspace sample 0: missing decomposition\n"
        )

    def test_wrong_p_alpha(self, tmp_path, capsys):
        path = tmp_path / "scan.json"
        assert main(["scan", "--alpha-grid", "7/8:1:1/8", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        row = data["result"]["rows"][0]
        assert (row["alpha"], row["p_alpha"]) == ("7/8", "6/7")
        row["p_alpha"] = "5/7"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().out == (
            "certificate 0 (broadcast): FAILED\n  alpha=7/8: stated p_alpha wrong\n"
        )


class TestChecksOnTheVerifiersOwnTables:
    """Checks of values the verifier computes itself, reached by patching its tables."""

    def test_ray_point_off_the_local_polytope(self, monkeypatch):
        rays = polytope._ray_table(0, 0, 0)
        # halfway to the apex: beta_000 = 3, so the point violates that CHSH facet
        bad = dataclasses.replace(rays[0], point=mix(F(1, 2), pr_box(0, 0, 0), rays[0].point))
        table = lambda r, s, t: (bad,) + rays[1:]
        monkeypatch.setattr(polytope, "_ray_table", table)
        monkeypatch.setattr(certificates, "_ray_table", table)
        data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
        name = bad.vertex_name
        assert verify_certificate(data) == (
            False,
            [
                f"{name}: point violates a CHSH facet",
                f"{name}: certificate does not claim membership",
            ],
        )

    def test_hull_sample_with_a_fault(self, monkeypatch):
        data = roundtrip(halfspace_certificate(halfspace_body_equality_check(0, 0, 0, 2, 1)))
        assert verify_certificate(data) == (True, [])
        second = list(islice(halfspace_draws(0, 0, 0, 2, 1), 2))[1]
        real = certificates.hull_fault
        monkeypatch.setattr(
            certificates,
            "hull_fault",
            lambda r, s, t, counts: "not fully NS" if counts == second else real(r, s, t, counts),
        )
        assert verify_certificate(data) == (
            False,
            ["hull sample 1: not fully NS", "stated all_pass disagrees with the verified checks"],
        )


class TestCutLabel:
    def test_four_party_membership_certificate_verifies(self):
        k = b_alpha(F(3, 4))
        box = tensor(k, k)
        data = roundtrip(membership_certificate(box, lr_membership(box, cut=BROADCAST_CUT)))
        assert data["inputs"]["cut"] == "broadcast"
        assert verify_certificate(data) == (True, [])

    def test_two_party_label(self):
        box = b_alpha(F(7, 8))
        assert antirobustness_certificate(box, anti_robustness(box))["inputs"]["cut"] == "2x2"
        assert membership_certificate(box, lr_membership(box))["inputs"]["cut"] == "2x2"


class TestHyperplaneTable:
    """The stated points must be the apex's 23 ray-table rows, in table order."""

    def data(self):
        return roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))

    def test_apex_as_vertex_rejected(self):
        data = self.data()
        data["result"]["points"][0]["vertex"] = "pr_000"
        ok, errors = verify_certificate(data)
        assert not ok
        assert "points are not the 23 ray points in table order" in errors

    def test_repeated_point_rejected(self):
        data = self.data()
        points = data["result"]["points"]
        points.append(copy.deepcopy(points[0]))
        assert len(points) == 24
        ok, errors = verify_certificate(data)
        assert not ok
        assert "points are not the 23 ray points in table order" in errors

    def test_non_convex_weights_rejected(self):
        data = self.data()
        data["result"]["points"][0]["weights"] = {"det_00_00": "2/1", "det_00_01": "-1/1"}
        ok, errors = verify_certificate(data)
        assert not ok and "WeightOutOfRange" in errors[0]

    def test_reordered_points_rejected(self):
        data = self.data()
        points = data["result"]["points"]
        points[0], points[1] = points[1], points[0]
        assert not verify_certificate(data)[0]


class TestStatedValuesRechecked:
    """Every value a certificate states is recomputed, not trusted."""

    def scan_data(self):
        return roundtrip(scan_certificate(broadcast_scan([F(3, 4), F(7, 8)])))

    def test_scan_anti_robustness_tampered(self):
        data = self.scan_data()
        row = data["result"]["rows"][1]
        assert row["anti_robustness"] == "6/7"
        row["anti_robustness"] = "1/1"
        ok, errors = verify_certificate(data)
        assert not ok
        assert errors == ["alpha=7/8: stated anti_robustness wrong"]

    @pytest.mark.parametrize(
        "alphas", [["3/4"], ["7/8", "3/4"], ["3/4", "7/8", "1/1"], ["3/4", "13/16"]]
    )
    def test_scan_inputs_alphas_must_match_rows(self, alphas):
        data = self.scan_data()
        assert verify_certificate(data)[0]
        data["inputs"]["alphas"] = alphas
        ok, errors = verify_certificate(data)
        assert not ok
        assert errors == ["inputs.alphas differ from the row alphas"]

    def test_empty_scan_stays_valid(self):
        data = roundtrip(scan_certificate(ScanReport(())))
        assert data["inputs"]["alphas"] == [] and data["result"]["rows"] == []
        assert verify_certificate(data) == (True, [])

    @pytest.mark.parametrize("kind", ["hyperplane", "halfspace"])
    def test_all_pass_flipped(self, kind):
        if kind == "hyperplane":
            data = hyperplane_certificate(hyperplane_locality_check(0, 1, 0))
        else:
            data = halfspace_certificate(halfspace_body_equality_check(0, 1, 0, samples=4, seed=5))
        data = roundtrip(data)
        assert data["result"]["all_pass"] is True
        assert verify_certificate(data) == (True, [])
        data["result"]["all_pass"] = False
        ok, errors = verify_certificate(data)
        assert not ok
        assert errors == ["stated all_pass disagrees with the verified checks"]

    def test_all_pass_must_be_a_bool(self):
        data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
        data["result"]["all_pass"] = 1
        assert not verify_certificate(data)[0]

    def test_halfspace_without_samples_stays_valid(self):
        report = halfspace_body_equality_check(0, 0, 0, samples=0, seed=0)
        assert verify_certificate(roundtrip(halfspace_certificate(report))) == (True, [])

    def halfspace_data(self):
        report = halfspace_body_equality_check(0, 0, 0, samples=4, seed=5)
        return roundtrip(halfspace_certificate(report))

    def first_hull_weight(self, data, text):
        """(row, column) of the first hull weight spelled ``text``."""
        rows = data["result"]["hull_weights"]
        return next((i, j) for i, row in enumerate(rows) for j, w in enumerate(row) if w == text)

    def test_antirobustness_value_true_rejected(self):
        # b_alpha(3/4) is local, so its optimum is 1, which a JSON true equals
        box = b_alpha(F(3, 4))
        data = roundtrip(antirobustness_certificate(box, anti_robustness(box)))
        assert data["result"]["value"] == "1/1"
        assert verify_certificate(data) == (True, [])
        data["result"]["value"] = True
        ok, errors = verify_certificate(data)
        assert not ok
        assert errors == [
            "malformed certificate: RationalFormatError('not an exact rational: True (bool)')"
        ]

    def test_halfspace_hull_weight_false_rejected(self):
        data = self.halfspace_data()
        assert verify_certificate(data) == (True, [])
        i, j = self.first_hull_weight(data, "0/1")
        data["result"]["hull_weights"][i][j] = False
        ok, errors = verify_certificate(data)
        assert not ok
        assert errors == [
            "malformed certificate: RationalFormatError('not an exact rational: False (bool)')"
        ]

    def test_non_canonical_hull_weight_still_verifies(self):
        data = self.halfspace_data()
        i, j = self.first_hull_weight(data, "1/64")
        data["result"]["hull_weights"][i][j] = "2/128"
        assert verify_certificate(data) == (True, [])
        data["result"]["hull_weights"][i][j] = "3/128"
        assert verify_certificate(data) == (
            False,
            [
                f"hull sample {i}: weights differ from the seeded stream",
                "stated all_pass disagrees with the verified checks",
            ],
        )

    @pytest.mark.parametrize("kind", ["hyperplane", "halfspace"])
    @pytest.mark.parametrize("rst", [[0, 1, 1], [False, True, True], "\u0660\u0661\u0661"])
    def test_rst_must_be_three_ascii_bits(self, kind, rst):
        if kind == "hyperplane":
            data = hyperplane_certificate(hyperplane_locality_check(0, 1, 1))
        else:
            data = halfspace_certificate(halfspace_body_equality_check(0, 1, 1, samples=2, seed=5))
        data = roundtrip(data)
        assert data["inputs"]["rst"] == "011"
        assert verify_certificate(data) == (True, [])
        data["inputs"]["rst"] = rst
        ok, errors = verify_certificate(data)
        assert not ok
        exc = ValueError(f"expected 3 bits, got {rst!r}")
        assert errors == [f"malformed certificate: {exc!r}"]

    @pytest.mark.parametrize(
        "field, seed, value",
        [
            ("seed", 1, True),
            ("seed", 0, False),
            ("seed", 1, 1.0),
            ("seed", 1, "1"),
            ("samples", 5, True),
            ("samples", 5, 1.0),
        ],
    )
    def test_halfspace_counts_must_be_json_integers(self, field, seed, value):
        # each stated value equals the true one, so only its type can fail it
        report = halfspace_body_equality_check(0, 0, 0, samples=1, seed=seed)
        data = roundtrip(halfspace_certificate(report))
        assert verify_certificate(data) == (True, [])
        data["inputs"][field] = value
        ok, errors = verify_certificate(data)
        assert not ok
        exc = TypeError(f"inputs.{field} is not a JSON integer: {value!r}")
        assert errors == [f"malformed certificate: {exc!r}"]

    def test_halfspace_negative_seed_rejected(self):
        # random.Random seeds by absolute value: seed -5 replays the draws of seed 5
        report = halfspace_body_equality_check(0, 0, 0, samples=2, seed=5)
        data = roundtrip(halfspace_certificate(report))
        assert verify_certificate(data) == (True, [])
        data["inputs"]["seed"] = -5
        assert verify_certificate(data) == (False, ["inputs.seed is negative"])

    def test_integer_beta_still_verifies(self):
        data = roundtrip(hyperplane_certificate(hyperplane_locality_check(0, 0, 0)))
        point = data["result"]["points"][0]
        assert point["betas"]["000"] == "2/1"
        point["betas"]["000"] = 2
        assert verify_certificate(data) == (True, [])
        point["betas"]["000"] = 3
        name = point["vertex"]
        assert verify_certificate(data) == (
            False,
            [
                f"{name}: stated beta_000 differs",
                "stated all_pass disagrees with the verified checks",
            ],
        )


@pytest.mark.full_oracle
@pytest.mark.skipif(
    not os.environ.get("BOXCERT_FULL_ORACLE"),
    reason="opt-in heavy path: set BOXCERT_FULL_ORACLE=1",
)
class TestFullOracleCertificates:
    def test_feasible_full_row_verifies_with_broadcast_copy(self):
        report = broadcast_scan([F(25, 32)], include_full=True)
        data = roundtrip(scan_certificate(report))
        row = data["result"]["rows"][0]
        assert row["full"]["feasible"]
        assert row["full"]["broadcast_copy"]
        ok, errors = verify_certificate(data)
        assert ok, errors

    def test_tampered_broadcast_copy_fails(self):
        report = broadcast_scan([F(25, 32)], include_full=True)
        data = roundtrip(scan_certificate(report))
        bad = copy.deepcopy(data)
        probs = bad["result"]["rows"][0]["full"]["broadcast_copy"]["probs"]
        # swap two unequal entries: stays a valid table, breaks the match
        for i in range(len(probs)):
            for j in range(i + 1, len(probs)):
                if probs[i] != probs[j]:
                    probs[i], probs[j] = probs[j], probs[i]
                    break
            else:
                continue
            break
        ok, _ = verify_certificate(bad)
        assert not ok
