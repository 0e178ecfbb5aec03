"""Box JSON round-trips and reader rejection of malformed tables."""

import json
from fractions import Fraction

import pytest

from boxcert.box import BoxError, b_alpha, pr_box, tensor
from boxcert.boxio import BoxFormatError, box_from_dict, box_to_dict, load_box, save_box

F = Fraction


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        box = b_alpha(F(7, 8))
        path = tmp_path / "b78.json"
        save_box(box, path)
        assert load_box(path) == box

    def test_four_party_round_trip(self, tmp_path):
        box = tensor(pr_box(0, 0, 0), pr_box(1, 1, 0))
        path = tmp_path / "prod.json"
        save_box(box, path)
        assert load_box(path) == box

    def test_canonical_rational_spelling(self):
        data = box_to_dict(pr_box(0, 0, 0))
        assert data["probs"][0] == "1/2"
        assert "0/1" in data["probs"]

    def test_integer_strings_accepted(self):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"] = [p.replace("0/1", "0").replace("1/2", "1/2") for p in data["probs"]]
        assert box_from_dict(data) == pr_box(0, 0, 0)


class TestRejection:
    def test_missing_field(self):
        with pytest.raises(BoxFormatError) as err:
            box_from_dict({"parties": 2, "inputs": [2, 2], "outputs": [2, 2]})
        assert "probs" in str(err.value)

    def test_float_probs_rejected(self):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"][0] = "0.5"
        with pytest.raises(BoxFormatError) as err:
            box_from_dict(data)
        assert "probs[0]" in str(err.value)

    def test_negative_rejected(self):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"][0] = "-1/2"
        data["probs"][3] = "3/2"
        with pytest.raises(Exception):
            box_from_dict(data)

    def test_not_normalized_rejected(self):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"][0] = "3/4"
        with pytest.raises(Exception):
            box_from_dict(data)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BoxFormatError):
            load_box(path)

    def test_entry_past_the_int_digit_limit(self):
        # past the interpreter's int-string limit the digits do not parse;
        # with the limit off (0) they do, and the table is not normalized
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"][0] = "1" * 5_000 + "/2"
        with pytest.raises(BoxError):
            box_from_dict(data)

    @pytest.mark.parametrize(
        "field, data",
        [
            # each table is valid once the boolean reads as the integer it equals
            ("parties", {"parties": True, "inputs": [2], "outputs": [2], "probs": ["1/2"] * 4}),
            ("inputs", {"parties": 2, "inputs": [True, 2], "outputs": [2, 2], "probs": ["1/4"] * 8}),
            ("outputs", {"parties": 2, "inputs": [2, 2], "outputs": [2, True], "probs": ["1/2"] * 8}),
        ],
    )
    def test_boolean_arity_rejected(self, field, data):
        with pytest.raises(BoxFormatError) as err:
            box_from_dict(data)
        assert err.value.field == field

    def test_wrong_length(self):
        data = box_to_dict(pr_box(0, 0, 0))
        data["probs"] = data["probs"][:-1]
        with pytest.raises(Exception):
            box_from_dict(data)
