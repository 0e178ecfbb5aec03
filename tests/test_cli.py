"""Command-line interface: verbs, exit codes, JSON determinism."""

import argparse
import gc
import hashlib
import json
import sys
from fractions import Fraction

import pytest

from boxcert.box import b_alpha, pr_box, uniform_box, make_box
from boxcert.boxio import box_to_dict, save_box
from boxcert.certificates import FORMAT_VERSION, membership_certificate, save_certificate
from boxcert import cli
from boxcert.cli import build_parser, cmd_scan, main
from boxcert.polytope import lr_membership
from boxcert.rational import parse_rational

F = Fraction


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    save_box(pr_box(0, 0, 0), path)
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    save_box(uniform_box(2), path)
    return str(path)


class TestValidate:
    def test_valid_ns_box(self, pr_file, capsys):
        assert main(["validate", pr_file]) == 0
        out = capsys.readouterr().out
        assert "fully non-signalling: yes" in out

    def test_signalling_box_exits_one(self, tmp_path, capsys):
        import itertools

        entries = {}
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            entries[((a, b), (x, y))] = F(1) if (a == y and b == 0) else F(0)
        path = tmp_path / "sig.json"
        save_box(make_box(2, (2, 2), (2, 2), entries), path)
        assert main(["validate", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"parties": 2, "inputs": [2,2], "outputs": [2,2], "probs": ["0.5"]}')
        assert main(["validate", str(path)]) == 2
        assert "probs[0]" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["validate", "/nonexistent/box.json"]) == 2


# Files that cannot be read or parsed as JSON, by how each one is made.
UNREADABLE = {
    "directory": lambda path: path.mkdir(),
    "non-utf8": lambda path: path.write_bytes(b"\xff\xfe{"),
    "deeply-nested": lambda path: path.write_text("[" * 200_000 + "]" * 200_000),
    "long-integer": lambda path: path.write_text('{"n": ' + "1" * 5_000 + "}"),
}


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestUnreadableInputExitsTwo:
    @pytest.mark.parametrize("verb", ["validate", "verify-cert"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_unreadable_file(self, tmp_path, capsys, verb, name):
        if name == "long-integer" and sys.get_int_max_str_digits() == 0:
            pytest.skip("the interpreter's int-string digit limit is off")
        path = tmp_path / name
        UNREADABLE[name](path)
        assert main([verb, str(path)]) == 2
        assert_one_error_line(capsys)

    def test_probability_past_the_int_digit_limit(self, tmp_path, capsys):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"][0] = "1" * 5_000 + "/2"
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert_one_error_line(capsys)

    def test_json_output_to_a_directory(self, pr_file, tmp_path, capsys):
        assert main(["validate", pr_file, "--json", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("parties, code", [(8, 0), (9, 2)])
    def test_party_count_is_bounded(self, tmp_path, capsys, parties, code):
        # arity-1 parties keep the table at one entry, yet the full
        # non-signalling check passes over it once per proper party subset
        data = {"parties": parties, "inputs": [1] * parties, "outputs": [1] * parties,
                "probs": ["1"]}
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == code
        if code == 2:
            assert assert_one_error_line(capsys).startswith("error: parties: ")

    def test_scan_alpha_out_of_range_before_any_row(self, capsys):
        assert main(["scan", "--alpha-grid", "7/8:9/8:1/8"]) == 2
        assert_one_error_line(capsys)


class TestBeta:
    def test_uniform_beta_prints_zero(self, uniform_file, capsys):
        assert main(["beta", uniform_file, "--rst", "000"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_pr_beta_prints_four(self, pr_file, capsys):
        assert main(["beta", pr_file, "--rst", "000"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_table_output(self, pr_file, capsys):
        assert main(["beta", pr_file]) == 0
        out = capsys.readouterr().out
        assert "beta_000 = 4" in out
        assert "all within [-2, 2]: no" in out

    def test_wrong_shape_exits_two(self, tmp_path):
        path = tmp_path / "u4.json"
        save_box(uniform_box(4), path)
        assert main(["beta", str(path), "--rst", "000"]) == 2


class TestTwirl:
    def test_twirl_writes_box_file(self, tmp_path, capsys):
        path = tmp_path / "det.json"
        from boxcert.box import deterministic_vertices

        save_box(deterministic_vertices()[0], path)
        out_path = tmp_path / "twirled.json"
        assert main(["twirl", str(path), "--rs", "00", "--json", str(out_path)]) == 0
        assert "line weight p = 3/4" in capsys.readouterr().out
        from boxcert.boxio import load_box

        assert load_box(out_path) == b_alpha(F(3, 4))


class TestAntiRobustness:
    def test_pr_prints_three_quarters(self, pr_file, capsys):
        assert main(["antirobustness", pr_file]) == 0
        assert capsys.readouterr().out.strip() == "3/4"

    def test_certificate_emitted_and_verifiable(self, pr_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["antirobustness", pr_file, "--json", str(cert_path)]) == 0
        assert main(["verify-cert", str(cert_path)]) == 0
        assert "verified" in capsys.readouterr().out


class TestHyperplane:
    def test_single_apex(self, tmp_path, capsys):
        cert_path = tmp_path / "hyp.json"
        assert main(["hyperplane-check", "--rst", "000", "--json", str(cert_path)]) == 0
        assert "apex 000: 23 ray points, pass" in capsys.readouterr().out
        assert main(["verify-cert", str(cert_path)]) == 0

    def test_with_samples(self, tmp_path, capsys):
        cert_path = tmp_path / "hyp2.json"
        code = main(
            [
                "hyperplane-check",
                "--rst", "000",
                "--samples", "10",
                "--seed", "1",
                "--json", str(cert_path),
            ]
        )
        assert code == 0
        assert main(["verify-cert", str(cert_path)]) == 0

    @pytest.mark.parametrize("count", ["-1", "-3"])
    def test_negative_samples_exit_two(self, count, capsys):
        # a negative count once wrote a certificate its own verifier rejects
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["hyperplane-check", "--samples", count])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-5", "-1", "5.0", "x"])
    def test_seed_not_a_nonnegative_integer_exits_two(self, seed, capsys):
        # random.Random seeds by absolute value, so --seed -5 drew the samples of --seed 5
        argv = ["hyperplane-check", "--rst", "000", "--samples", "1", "--seed", seed]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "--seed" in captured.err

    def test_seed_has_no_upper_cap(self):
        args = build_parser().parse_args(["hyperplane-check", "--seed", "12345678901234567890"])
        assert args.seed == 12345678901234567890

    def test_samples_at_the_cap_parse(self):
        args = build_parser().parse_args(["hyperplane-check", "--samples", str(cli.MAX_SAMPLES)])
        assert args.samples == cli.MAX_SAMPLES

    def test_samples_over_the_cap_exit_two(self, capsys):
        # rejected while parsing, so no check runs
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["hyperplane-check", "--samples", str(cli.MAX_SAMPLES + 1)])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestBroadcast:
    def test_infeasible_at_seven_eighths(self, tmp_path, capsys):
        cert_path = tmp_path / "bc.json"
        assert main(["broadcast-check", "--alpha", "7/8", "--json", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        data = json.loads(cert_path.read_text())
        assert data["result"]["rows"][0]["projection"]["outcome"]["farkas"]
        assert main(["verify-cert", str(cert_path)]) == 0

    def test_feasible_at_three_quarters(self, capsys):
        assert main(["broadcast-check", "--alpha", "3/4"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_window_cannot_certify_exits_one(self, capsys):
        assert main(["broadcast-check", "--alpha", "25/32"]) == 1
        assert "cannot certify" in capsys.readouterr().out

    def test_bad_alpha_exits_two(self):
        assert main(["broadcast-check", "--alpha", "1/2"]) == 2

    def test_float_alpha_rejected(self, capsys):
        assert main(["broadcast-check", "--alpha", "0.875"]) == 2


class TestScan:
    def test_grid_scan(self, tmp_path, capsys):
        cert_path = tmp_path / "scan.json"
        code = main(
            ["scan", "--alpha-grid", "13/16:1:1/16", "--json", str(cert_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("infeasible") == 4
        assert main(["verify-cert", str(cert_path)]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["scan", "--alpha-grid", "7/8:1:1/16", "--json", str(a)]) == 0
        assert main(["scan", "--alpha-grid", "7/8:1:1/16", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_at_the_cap_parses(self):
        step = f"1/{4 * (cli.MAX_GRID_POINTS - 1)}"
        args = build_parser().parse_args(["scan", "--alpha-grid", f"3/4:1:{step}"])
        assert len(args.alpha_grid) == cli.MAX_GRID_POINTS
        assert args.alpha_grid[0] == F(3, 4) and args.alpha_grid[-1] == 1

    def test_grid_over_the_cap_exits_two(self, capsys):
        # counted before any grid value is built, so no scan starts
        step = f"1/{4 * cli.MAX_GRID_POINTS}"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scan", "--alpha-grid", f"3/4:1:{step}"])
        assert exc.value.code == 2
        assert f"{cli.MAX_GRID_POINTS + 1} points" in capsys.readouterr().err

    def test_grid_points_match_repeated_steps(self):
        for text in ("3/4:1:1/16", "3/4:1:3/40", "3/4:3/4:1/8", "7/8:1:1"):
            start, end, step = (parse_rational(v) for v in text.split(":"))
            expected, current = [], start
            while current <= end:
                expected.append(current)
                current += step
            assert build_parser().parse_args(["scan", "--alpha-grid", text]).alpha_grid == expected


class TestPinnedCertificates:
    """Certificates must stay byte-identical across solver changes, not only across runs."""

    def test_antirobustness_pr_box(self, pr_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        assert main(["antirobustness", pr_file, "--json", str(cert_path)]) == 0
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == "c8fa61cfa7ccf9b3f6b00068d8f8cbf39d80f9bfbe74a6586af14b3c836d099e"

    def test_scan_seven_eighths_to_one(self, tmp_path):
        cert_path = tmp_path / "scan.json"
        assert main(["scan", "--alpha-grid", "7/8:1:1/16", "--json", str(cert_path)]) == 0
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == "8cf62ac54185ebf950570dcd2649dd933cf7aa7c2f9ce662fb5101297ae1c37d"

    def test_hyperplane_with_samples(self, tmp_path):
        cert_path = tmp_path / "hyperplane.json"
        argv = ["hyperplane-check", "--rst", "010", "--samples", "8", "--seed", "3"]
        assert main(argv + ["--json", str(cert_path)]) == 0
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == "79a30e607a55ccd01e8909870d40f49e6265999fdb9d3bb5573ea8b54c59fa63"

    HYPERPLANE_DIGESTS = {
        "000": "b95d9d4763c29498dd38d5dbca7b53ebf135b3b1ab55cbf5f57f5554abbc2134",
        "001": "7d53544d90e97df36c018d5c128e8043b3b464915d45ef80a7fe88f4c287c8c4",
        "010": "8c4dad29bc3d479d727342ff91ddb52d314116d395bc16db4ca12a9f52e204c6",
        "011": "370cc024976bf70f4de97dc1a23309a58cbcb1bc8c99dc449f20a450caeb8e55",
        "100": "8edca99125f89c2f00160939c31d33bd98c87dd85a1c4a248d225a1a8792a306",
        "101": "352ae80ee7516dca516a5b1e112001193df6b1c24bfca5b3579989eb26d8dfcc",
        "110": "18a198ed0e8984afceec94f8c3b24801e48a430f96818d8ebd6fcb69543670fc",
        "111": "adf0e0de512b69f74e6379c3470a2d16d7c739f07fd3b56d23bf5548574e43d6",
    }

    @pytest.mark.parametrize("rst", sorted(HYPERPLANE_DIGESTS))
    def test_hyperplane_every_apex(self, rst, tmp_path):
        cert_path = tmp_path / "hyperplane.json"
        argv = ["hyperplane-check", "--rst", rst, "--samples", "0", "--json", str(cert_path)]
        assert main(argv) == 0
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == self.HYPERPLANE_DIGESTS[rst]

    # --samples 8 --seed <k> for the k-th apex, recorded while each sample still solved an LP
    SAMPLED_HYPERPLANE_DIGESTS = {
        "000": "a5c9dacf9633693ceaa9b473d819ca51af355291ea468fc673b9b382a5105a52",
        "001": "c466adb9961942a5495ba3a8f85c7308f78d89e4adf404c9036f3d3b7bf09bb6",
        "010": "798e705ade233ae8cf0e2131b478dd4e0ae4c1399fb2208dd2ebcb8c23818f96",
        "011": "27fa6a630f141140a8e7ead36f79e4eddde00942b85fa1b4802626c1d32e5ec9",
        "100": "7eba7ea9d919f5129f6cb8a4b2b659334b21f2c641179c0809a5cc96a71935b3",
        "101": "f2b2e4a4638f6e8177924f4a523247220972bd82679b50ece55e35c8daf564e1",
        "110": "28a92b0b11761843b6c1cf22d9adbf93ffb554891fe7a09805510eaf0736818c",
        "111": "ffb5bd2565d7fdc4ce64f370b4ddbed43cbe979937366929cfa0b25cfba0943b",
    }

    @pytest.mark.parametrize("seed, rst", enumerate(sorted(SAMPLED_HYPERPLANE_DIGESTS)))
    def test_hyperplane_with_samples_every_apex(self, seed, rst, tmp_path):
        cert_path = tmp_path / "hyperplane.json"
        argv = ["hyperplane-check", "--rst", rst, "--samples", "8", "--seed", str(seed)]
        assert main(argv + ["--json", str(cert_path)]) == 0
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == self.SAMPLED_HYPERPLANE_DIGESTS[rst]

    def test_scan_across_the_window(self, tmp_path):
        # rows in (3/4, 4/5] are not certified, so the scan exits 1
        cert_path = tmp_path / "scan.json"
        assert main(["scan", "--alpha-grid", "3/4:1:1/32", "--json", str(cert_path)]) == 1
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert digest == "191b974aa0ad808d63b4663add61ba6db32b5c5a4fa0fb81e050a6033495b840"


class TestVerifyCert:
    def test_tampered_certificate_fails(self, pr_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["antirobustness", pr_file, "--json", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["result"]["value"] = "749/1000"
        cert_path.write_text(json.dumps(data))
        assert main(["verify-cert", str(cert_path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_file(self):
        assert main(["verify-cert", "/nonexistent.json"]) == 2

    def test_unknown_verb_exits_two(self):
        assert main(["frobnicate"]) == 2


class TestVerifyCertRejectsMalformed:
    @pytest.mark.parametrize(
        "field, value",
        [("format", 99), ("probs", "x"), ("probs[0]", "13/48"), ("alpha", None)],
    )
    def test_exit_one(self, tmp_path, capsys, field, value):
        cert_path = tmp_path / "cert.json"
        if field == "alpha":
            assert main(["broadcast-check", "--alpha", "13/16", "--json", str(cert_path)]) == 0
            data = json.loads(cert_path.read_text())
            data["result"]["rows"][0]["alpha"] = "1/2"
        else:
            box_path = tmp_path / "box.json"
            save_box(b_alpha(F(7, 8)), box_path)
            assert main(["antirobustness", str(box_path), "--json", str(cert_path)]) == 0
            data = json.loads(cert_path.read_text())
            if field == "format":
                data["format"] = value
            elif field == "probs":
                data["inputs"]["box"]["probs"] = value
            else:
                data["inputs"]["box"]["probs"][0] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(cert_path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [[], "x"])
    @pytest.mark.parametrize(
        "section, field",
        [("result", "weights"), ("outcome", "witness"), ("outcome", "dual"), ("outcome", "farkas")],
    )
    def test_non_object_field_exits_one(self, tmp_path, capsys, section, field, value):
        box_path, cert_path = tmp_path / "box.json", tmp_path / "cert.json"
        save_box(b_alpha(F(7, 8)), box_path)
        assert main(["antirobustness", str(box_path), "--json", str(cert_path)]) == 0
        data = json.loads(cert_path.read_text())
        data[section][field] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(cert_path)]) == 1
        assert "is not a JSON object" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ['[[{"kind": "scan"}]]', "5", "null"])
    def test_non_object_certificate_exits_one(self, tmp_path, capsys, text):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        assert main(["verify-cert", str(cert_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "certificate is not a JSON object" in out

    @pytest.mark.parametrize("kind", ["[]", "{}"])
    def test_unhashable_kind_exits_one(self, tmp_path, capsys, kind):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(f'{{"kind": {kind}, "format": 1}}')
        assert main(["verify-cert", str(cert_path)]) == 1
        assert f"unknown certificate kind {kind}" in capsys.readouterr().out

    def test_empty_list_exits_one(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("[]\n")
        assert main(["verify-cert", str(cert_path)]) == 1
        assert capsys.readouterr().out == "no certificates in file\n"

    @staticmethod
    def _flag_certificate(tmp_path, where):
        """A certificate file whose flag at ``where`` is a JSON boolean, and that flag's path."""
        cert_path = tmp_path / "cert.json"
        if where.startswith("membership"):
            box = uniform_box(2) if where == "membership-local" else pr_box(0, 0, 0)
            save_certificate(membership_certificate(box, lr_membership(box)), cert_path)
            return cert_path, ("result", "member")
        if where.startswith("broadcast"):
            alpha = "4/5" if where == "broadcast-feasible" else "13/16"
            main(["broadcast-check", "--alpha", alpha, "--json", str(cert_path)])
            return cert_path, ("result", "rows", 0, "projection", "feasible")
        main(["hyperplane-check", "--rst", "000", "--samples", "0", "--json", str(cert_path)])
        if where == "hyperplane-all-pass":
            return cert_path, ("result", "all_pass")
        return cert_path, ("result", "points", 0, "member")

    @pytest.mark.parametrize("value", [0, 1, "no", None])
    @pytest.mark.parametrize(
        "where",
        [
            "membership-local",
            "membership-non-local",
            "hyperplane-point",
            "hyperplane-all-pass",
            "broadcast-feasible",
            "broadcast-infeasible",
        ],
    )
    def test_flag_that_is_not_a_json_boolean_exits_one(self, tmp_path, capsys, where, value):
        cert_path, path = self._flag_certificate(tmp_path, where)
        capsys.readouterr()
        data = json.loads(cert_path.read_text())
        assert main(["verify-cert", str(cert_path)]) == 0
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        assert isinstance(parent[path[-1]], bool)
        parent[path[-1]] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-cert", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_empty_grid_scan_certificate_verifies(self, tmp_path):
        cert_path = tmp_path / "empty.json"
        args = argparse.Namespace(alpha_grid=[], json=str(cert_path), full=False)
        assert cmd_scan(args) == 0
        assert json.loads(cert_path.read_text())["format"] == FORMAT_VERSION
        assert main(["verify-cert", str(cert_path)]) == 0


class TestNoCyclicGarbage:
    def test_repeated_calls_leave_nothing_for_the_collector(self, pr_file, tmp_path):
        # the parser is built once, so a call leaves no argparse cycles
        # (writing a certificate is left out: json.dumps with indent leaves
        # a few cycles of its own)
        cert = tmp_path / "ar.json"
        assert main(["antirobustness", pr_file, "--json", str(cert)]) == 0
        calls = [
            ["verify-cert", str(cert)],
            ["antirobustness", pr_file],
        ]
        for argv in calls:  # one warm call each fills the caches
            assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                for argv in calls:
                    assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
