"""Serializable certificates and their independent re-verification.

Each certificate embeds its inputs (boxes, parameters) and the solver
outcome; ``verify_certificate`` rebuilds the corresponding LP with the
same deterministic builders and re-checks everything by exact
substitution — no pivoting, no re-solving.  A single perturbed
coordinate anywhere makes verification fail.

Stated values are ``"num/den"`` strings or JSON integers, never
booleans.  The verifier reads each as an integer pair (``ratio``) and
compares it with the recomputed value by cross-multiplication, so equal
non-canonical spellings (``"2/128"`` for ``1/64``) pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .box import Box, BoxError, b_alpha, marginal, parse_bits
from .boxio import box_from_dict, box_to_dict, load_json, save_json
from .broadcast import (
    BroadcastInstance,
    ScanReport,
    bhat_from_witness,
    full_broadcast_lp,
    projection_lp,
)
from .chsh import beta_numerators
from .polytope import (
    BROADCAST_CUT,
    AntiRobustnessResult,
    HalfspaceReport,
    HyperplaneReport,
    MembershipCertificate,
    anti_robustness_closed_form,
    anti_robustness_lp,
    halfspace_draws,
    hull_fault,
    membership_lp,
    mixture,
    ray_points,
    _local_vertex_set,
    _ray_table,
)
from .ratlp import LPOutcome, check_witness
from .rational import as_fraction, format_rational, ratio
from .sampling import DEFAULT_DENOMINATOR
from .vertices import local_vertices_2x2

F = Fraction

FORMAT_VERSION = 1


def _key_to_str(key: tuple) -> str:
    return f"{key[0]}:{key[1]}"


def _str_to_key(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "con":
        return ("con", int(rest))
    if kind == "lb":
        return ("lb", rest)
    raise ValueError(f"unknown certificate row key {text!r}")


def outcome_to_dict(outcome: LPOutcome) -> dict:
    data: dict = {"status": outcome.status}
    if outcome.witness is not None:
        data["witness"] = {v: format_rational(x) for v, x in sorted(outcome.witness.items())}
    if outcome.objective_value is not None:
        data["objective_value"] = format_rational(outcome.objective_value)
    if outcome.dual is not None:
        data["dual"] = {
            _key_to_str(k): format_rational(v) for k, v in sorted(outcome.dual.items())
        }
    if outcome.farkas is not None:
        data["farkas"] = {
            _key_to_str(k): format_rational(v) for k, v in sorted(outcome.farkas.items())
        }
    return data


def _object(data, field: str) -> dict:
    """A JSON object field; anything else is malformed."""
    if not isinstance(data, dict):
        raise TypeError(f"{field} is not a JSON object")
    return data


def _items(data, field: str):
    """The (key, value) pairs of a JSON object field."""
    return _object(data, field).items()


def outcome_from_dict(data: dict) -> LPOutcome:
    return LPOutcome(
        status=data["status"],
        witness={v: as_fraction(x) for v, x in _items(data["witness"], "outcome.witness")}
        if "witness" in data
        else None,
        objective_value=as_fraction(data["objective_value"])
        if "objective_value" in data
        else None,
        dual={_str_to_key(k): as_fraction(v) for k, v in _items(data["dual"], "outcome.dual")}
        if "dual" in data
        else None,
        farkas={_str_to_key(k): as_fraction(v) for k, v in _items(data["farkas"], "outcome.farkas")}
        if "farkas" in data
        else None,
    )


def _weights_to_dict(weights: dict[str, Fraction]) -> dict:
    return {name: format_rational(w) for name, w in sorted(weights.items())}


def _same(stated, value: Fraction) -> bool:
    """Whether a stated rational equals ``value``, compared on integers."""
    num, den = ratio(stated)
    return num * value.denominator == value.numerator * den


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _certificate(kind: str, inputs: dict, result: dict, outcome: LPOutcome | None = None) -> dict:
    data = {"format": FORMAT_VERSION, "kind": kind, "inputs": inputs, "result": result}
    if outcome is not None:
        data["outcome"] = outcome_to_dict(outcome)
    return data


def _box_inputs(box: Box) -> dict:
    """A weight-LP certificate's inputs: the box and the cut its shape implies."""
    cut = "2x2" if box.is_binary_bipartite() else "broadcast"
    return {"box": box_to_dict(box), "cut": cut}


def membership_certificate(box: Box, cert: MembershipCertificate) -> dict:
    result: dict = {"member": cert.member}
    if cert.weights is not None:
        result["weights"] = _weights_to_dict(cert.weights)
    if cert.violated_facets:
        result["violated_facets"] = [
            {"rst": f"{v.r}{v.s}{v.t}", "value": format_rational(v.value)}
            for v in cert.violated_facets
        ]
    return _certificate("membership", _box_inputs(box), result, cert.outcome)


def antirobustness_certificate(box: Box, result: AntiRobustnessResult) -> dict:
    stated = {"value": format_rational(result.value), "weights": _weights_to_dict(result.weights)}
    return _certificate("antirobustness", _box_inputs(box), stated, result.outcome)


def hyperplane_certificate(report: HyperplaneReport) -> dict:
    points = [
        {
            "vertex": check.ray.vertex_name,
            "p": format_rational(check.ray.p),
            "betas": {f"{v.r}{v.s}{v.t}": format_rational(v.value) for v in check.betas},
            "member": check.membership.member,
            "weights": _weights_to_dict(check.membership.weights or {}),
        }
        for check in report.checks
    ]
    return _certificate(
        "hyperplane",
        {"rst": "%d%d%d" % report.apex},
        {"all_pass": report.all_pass, "points": points},
    )


def halfspace_certificate(report: HalfspaceReport) -> dict:
    return _certificate(
        "halfspace",
        {"rst": "%d%d%d" % report.apex, "samples": report.samples, "seed": report.seed},
        {
            "all_pass": report.all_pass,
            "hull_weights": [[format_rational(w) for w in row] for row in report.hull_weights],
            "half_decompositions": [_weights_to_dict(d) for d in report.half_decompositions],
        },
    )


def scan_certificate(report: ScanReport) -> dict:
    rows = []
    for row in report.rows:
        entry: dict = {
            "alpha": format_rational(row.alpha),
            "p_alpha": format_rational(row.p_alpha),
            "anti_robustness": format_rational(row.anti_robustness),
            "projection": {
                "feasible": row.projection.feasible,
                "outcome": outcome_to_dict(row.projection.outcome),
            },
            "full": None,
        }
        if row.full is not None:
            entry["full"] = {
                "feasible": row.full.feasible,
                "outcome": outcome_to_dict(row.full.outcome),
            }
            if row.full.feasible:
                entry["full"]["broadcast_copy"] = box_to_dict(
                    row.full.witness["broadcast_copy"]
                )
        rows.append(entry)
    alphas = [format_rational(row.alpha) for row in report.rows]
    return _certificate("broadcast", {"alphas": alphas}, {"rows": rows})


def save_certificate(data: dict, path) -> None:
    save_json(data, path)


def load_certificate(path):
    return load_json(path)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def _points_for(box: Box, cut: str):
    if cut == "2x2":
        return _local_vertex_set(box, None)
    if cut == "broadcast":
        return _local_vertex_set(box, BROADCAST_CUT)
    raise ValueError(f"unknown cut label {cut!r}")


def _json_int(value, field: str) -> int:
    """A JSON integer; booleans, floats and strings are malformed."""
    if type(value) is not int:
        raise TypeError(f"{field} is not a JSON integer: {value!r}")
    return value


def _check_flag(stated, expected: bool, message: str, errors: list[str]) -> bool:
    """A stated flag must be the JSON boolean ``expected``: 0, 1, "no" or null never is."""
    if stated is expected:
        return True
    errors.append(message)
    return False


def _verify_membership(data: dict, errors: list[str]) -> None:
    box = box_from_dict(data["inputs"]["box"])
    points = _points_for(box, data["inputs"]["cut"])
    lp = membership_lp(box, points)
    outcome = outcome_from_dict(data["outcome"])
    if not check_witness(lp, outcome):
        errors.append("LP outcome fails check_witness")
        return
    member = data["result"]["member"]
    message = "member flag disagrees with LP outcome status"
    _check_flag(member, outcome.status == "optimal", message, errors)
    if member is True:
        weights = _object(data["result"]["weights"], "weights")
        if mixture(weights, points) != box:
            errors.append("weights do not reconstruct the box")


def _verify_antirobustness(data: dict, errors: list[str]) -> None:
    box = box_from_dict(data["inputs"]["box"])
    points = _points_for(box, data["inputs"]["cut"])
    lp = anti_robustness_lp(box, points)
    outcome = outcome_from_dict(data["outcome"])
    if not check_witness(lp, outcome):
        errors.append("LP outcome fails check_witness")
        return
    num, den = ratio(data["result"]["value"])
    q = outcome.objective_value
    if outcome.status != "optimal" or num * q.denominator != q.numerator * den:
        errors.append("stated value disagrees with verified optimum")
        return
    local = mixture(_object(data["result"]["weights"], "weights"), points)
    # L - (num/den)*box >= 0 entrywise, multiplied through by den * l_den * b_den > 0
    l_nums, l_den = local.int_view
    b_nums, b_den = box.int_view
    fl, fb = den * b_den, num * l_den
    if any(fl * u < fb * v for u, v in zip(l_nums, b_nums)):
        errors.append("local witness fails the admixture inequality")


def _check_all_pass(data: dict, errors: list[str]) -> None:
    """The stated ``all_pass`` must say whether the checks so far found no error."""
    message = "stated all_pass disagrees with the verified checks"
    _check_flag(data["result"]["all_pass"], not errors, message, errors)


def _verify_hyperplane(data: dict, errors: list[str]) -> None:
    """Each stated point must be its row of the apex's ray table, local by its weights."""
    rays = _ray_table(*parse_bits(data["inputs"]["rst"], 3))  # as the CLI reads --rst
    entries = data["result"]["points"]
    if [entry["vertex"] for entry in entries] != [ray.vertex_name for ray in rays]:
        errors.append(f"points are not the {len(rays)} ray points in table order")
        return
    for entry, ray in zip(entries, rays):
        name = ray.vertex_name
        if not _same(entry["p"], ray.p):
            errors.append(f"{name}: stated p differs from the hyperplane solution")
        sums, den = beta_numerators(ray.point)
        for rst, v in sums.items():
            key = "%d%d%d" % rst
            num, d = ratio(entry["betas"][key])
            if num * den != v * d:
                errors.append(f"{name}: stated beta_{key} differs")
        if not all(-2 * den <= v <= 2 * den for v in sums.values()):
            errors.append(f"{name}: point violates a CHSH facet")
        message = f"{name}: certificate does not claim membership"
        if not _check_flag(entry["member"], True, message, errors):
            continue
        if mixture(_object(entry["weights"], "weights"), local_vertices_2x2()) != ray.point:
            errors.append(f"{name}: membership weights do not reconstruct the point")
    _check_all_pass(data, errors)


def _verify_halfspace(data: dict, errors: list[str]) -> None:
    """Replay the seeded draw stream: the hull rows must match it, the boxes decompose."""
    r, s, t = parse_bits(data["inputs"]["rst"], 3)
    samples = _json_int(data["inputs"]["samples"], "inputs.samples")
    seed = _json_int(data["inputs"]["seed"], "inputs.seed")
    if seed < 0:
        # random.Random seeds by absolute value: -k would replay the draws of k
        errors.append("inputs.seed is negative")
        return
    hull_rows = data["result"]["hull_weights"]
    half_rows = data["result"]["half_decompositions"]
    if len(hull_rows) != samples:
        errors.append("hull sample count mismatch")
        return
    if len(half_rows) != samples:
        errors.append("halfspace sample count mismatch")
        return
    draws = halfspace_draws(r, s, t, samples, seed)
    for k, (row, counts) in enumerate(zip(hull_rows, islice(draws, samples))):
        stated = [ratio(w) for w in row]
        if len(stated) != len(counts) or any(
            n * DEFAULT_DENOMINATOR != c * d for (n, d), c in zip(stated, counts)
        ):
            errors.append(f"hull sample {k}: weights differ from the seeded stream")
        elif fault := hull_fault(r, s, t, counts):
            errors.append(f"hull sample {k}: {fault}")
    points = ray_points(r, s, t)
    for k, (row, candidate) in enumerate(zip(half_rows, draws)):
        weights = _object(row, "weights")
        if not weights:
            errors.append(f"halfspace sample {k}: missing decomposition")
        elif mixture(weights, points) != candidate:
            errors.append(f"halfspace sample {k}: weights do not reconstruct the sample")
    _check_all_pass(data, errors)


def _verify_broadcast(data: dict, errors: list[str]) -> None:
    rows = data["result"]["rows"]
    # each oracle field is checked and its outcome parsed before its LP is built
    for i, entry in enumerate(rows):
        alpha = as_fraction(entry["alpha"])
        instance = BroadcastInstance(alpha)
        if not _same(entry["p_alpha"], instance.p_alpha):
            errors.append(f"alpha={alpha}: stated p_alpha wrong")
        num, den = ratio(entry["anti_robustness"])
        q = anti_robustness_closed_form(b_alpha(alpha))
        if num * q.denominator != q.numerator * den:
            errors.append(f"alpha={alpha}: stated anti_robustness wrong")
        projection = _object(entry["projection"], f"rows[{i}].projection")
        outcome = outcome_from_dict(projection["outcome"])
        if not check_witness(projection_lp(instance), outcome):
            errors.append(f"alpha={alpha}: projection outcome fails check_witness")
        _check_flag(
            projection["feasible"],
            outcome.status == "optimal",
            f"alpha={alpha}: projection verdict/status mismatch",
            errors,
        )
        if entry.get("full") is not None:
            full = _object(entry["full"], f"rows[{i}].full")
            full_outcome = outcome_from_dict(full["outcome"])
            if not check_witness(full_broadcast_lp(instance), full_outcome):
                errors.append(f"alpha={alpha}: full-oracle outcome fails check_witness")
            _check_flag(
                full["feasible"],
                full_outcome.status == "optimal",
                f"alpha={alpha}: full verdict/status mismatch",
                errors,
            )
            if full.get("broadcast_copy"):
                bhat = bhat_from_witness(alpha, full_outcome.witness)
                if bhat != box_from_dict(full["broadcast_copy"]):
                    errors.append(
                        f"alpha={alpha}: embedded broadcast copy does not match the witness"
                    )
                line_box = b_alpha(alpha)
                if marginal(bhat, {0, 1}) != line_box or marginal(bhat, {2, 3}) != line_box:
                    errors.append(
                        f"alpha={alpha}: broadcast copy marginals are not the line box"
                    )
    stated = [as_fraction(a) for a in data["inputs"]["alphas"]]
    if stated != [as_fraction(entry["alpha"]) for entry in rows]:
        errors.append("inputs.alphas differ from the row alphas")


_VERIFIERS = {
    "membership": _verify_membership,
    "antirobustness": _verify_antirobustness,
    "hyperplane": _verify_hyperplane,
    "halfspace": _verify_halfspace,
    "broadcast": _verify_broadcast,
}


def verify_certificate(data: dict) -> tuple[bool, list[str]]:
    """Re-verify a certificate by substitution; returns (ok, error list)."""
    if not isinstance(data, dict):
        return False, ["certificate is not a JSON object"]
    errors: list[str] = []
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        return False, [f"unknown certificate kind {kind!r}"]
    version = data.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        return False, [f"unsupported certificate format {version!r}, expected {FORMAT_VERSION}"]
    try:
        _VERIFIERS[kind](data, errors)
    except (KeyError, ValueError, TypeError, BoxError) as exc:
        errors.append(f"malformed certificate: {exc!r}")
    return (not errors), errors
