"""Serializable certificates and their independent re-verification.

Each certificate embeds its inputs (boxes, parameters) and the solver
outcome; ``verify_certificate`` rebuilds the corresponding LP with the
same deterministic builders and re-checks everything by exact
substitution — no pivoting, no re-solving.  A single perturbed
coordinate anywhere makes verification fail.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .box import Box, BoxError, b_alpha, convex_combination, is_fully_ns, marginal, mix, pr_box
from .boxio import box_from_dict, box_to_dict
from .broadcast import (
    BroadcastInstance,
    ScanReport,
    bhat_from_witness,
    full_broadcast_lp,
    projection_lp,
)
from .chsh import beta, beta_table
from .polytope import (
    BROADCAST_CUT,
    AntiRobustnessResult,
    HalfspaceReport,
    HyperplaneReport,
    MembershipCertificate,
    anti_robustness_closed_form,
    anti_robustness_lp,
    membership_lp,
    ray_points,
    _local_vertex_set,
)
from .ratlp import LPOutcome, check_witness
from .rational import as_fraction, format_rational
from .sampling import random_ns_box_with_min_beta, rational_weights, rng_from_seed
from .vertices import ns_vertices_2x2

F = Fraction

FORMAT_VERSION = 1


def _frac(value: Fraction) -> str:
    return format_rational(value)


def _key_to_str(key: tuple) -> str:
    return f"{key[0]}:{key[1]}"


def _str_to_key(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "con":
        return ("con", int(rest))
    if kind in ("lb", "ub"):
        return (kind, rest)
    raise ValueError(f"unknown certificate row key {text!r}")


def outcome_to_dict(outcome: LPOutcome) -> dict:
    data: dict = {"status": outcome.status}
    if outcome.witness is not None:
        data["witness"] = {v: _frac(x) for v, x in sorted(outcome.witness.items())}
    if outcome.objective_value is not None:
        data["objective_value"] = _frac(outcome.objective_value)
    if outcome.dual is not None:
        data["dual"] = {_key_to_str(k): _frac(v) for k, v in sorted(outcome.dual.items())}
    if outcome.farkas is not None:
        data["farkas"] = {
            _key_to_str(k): _frac(v) for k, v in sorted(outcome.farkas.items())
        }
    return data


def outcome_from_dict(data: dict) -> LPOutcome:
    return LPOutcome(
        status=data["status"],
        witness={v: as_fraction(x) for v, x in data["witness"].items()}
        if "witness" in data
        else None,
        objective_value=as_fraction(data["objective_value"])
        if "objective_value" in data
        else None,
        dual={_str_to_key(k): as_fraction(v) for k, v in data["dual"].items()}
        if "dual" in data
        else None,
        farkas={_str_to_key(k): as_fraction(v) for k, v in data["farkas"].items()}
        if "farkas" in data
        else None,
    )


def _weights_to_dict(weights: dict[str, Fraction]) -> dict:
    return {name: _frac(w) for name, w in sorted(weights.items())}


def _weights_from_dict(data: dict) -> dict[str, Fraction]:
    return {name: as_fraction(w) for name, w in data.items()}


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def membership_certificate(box: Box, cert: MembershipCertificate, cut: str = "2x2") -> dict:
    result: dict = {"member": cert.member}
    if cert.weights is not None:
        result["weights"] = _weights_to_dict(cert.weights)
    if cert.violated_facets:
        result["violated_facets"] = [
            {"rst": f"{v.r}{v.s}{v.t}", "value": _frac(v.value)}
            for v in cert.violated_facets
        ]
    return {
        "format": FORMAT_VERSION,
        "kind": "membership",
        "inputs": {"box": box_to_dict(box), "cut": cut},
        "result": result,
        "outcome": outcome_to_dict(cert.outcome),
    }


def antirobustness_certificate(box: Box, result: AntiRobustnessResult, cut: str = "2x2") -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "antirobustness",
        "inputs": {"box": box_to_dict(box), "cut": cut},
        "result": {
            "value": _frac(result.value),
            "weights": _weights_to_dict(result.weights),
        },
        "outcome": outcome_to_dict(result.outcome),
    }


def hyperplane_certificate(report: HyperplaneReport) -> dict:
    points = []
    for check in report.checks:
        points.append(
            {
                "vertex": check.ray.vertex_name,
                "p": _frac(check.ray.p),
                "betas": {
                    f"{v.r}{v.s}{v.t}": _frac(v.value) for v in check.betas
                },
                "member": check.membership.member,
                "weights": _weights_to_dict(check.membership.weights or {}),
            }
        )
    return {
        "format": FORMAT_VERSION,
        "kind": "hyperplane",
        "inputs": {"rst": "%d%d%d" % report.apex},
        "result": {"all_pass": report.all_pass, "points": points},
    }


def halfspace_certificate(report: HalfspaceReport) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "halfspace",
        "inputs": {
            "rst": "%d%d%d" % report.apex,
            "samples": report.samples,
            "seed": report.seed,
        },
        "result": {
            "all_pass": report.all_pass,
            "hull_weights": [
                [_frac(w) for w in row] for row in report.hull_weights
            ],
            "half_decompositions": [
                _weights_to_dict(d) for d in report.half_decompositions
            ],
        },
    }


def scan_certificate(report: ScanReport) -> dict:
    rows = []
    for row in report.rows:
        entry: dict = {
            "alpha": _frac(row.alpha),
            "p_alpha": _frac(row.p_alpha),
            "anti_robustness": _frac(row.anti_robustness),
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
    return {
        "format": FORMAT_VERSION,
        "kind": "broadcast",
        "inputs": {"alphas": [_frac(row.alpha) for row in report.rows]},
        "result": {"rows": rows},
    }


def save_certificate(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_certificate(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


class CertificateError(Exception):
    pass


def _points_for(box: Box, cut: str):
    if cut == "2x2":
        return _local_vertex_set(box, None)
    if cut == "broadcast":
        return _local_vertex_set(box, BROADCAST_CUT)
    raise CertificateError(f"unknown cut label {cut!r}")


def _mixture(stated_weights: dict, points) -> Box:
    """The mixture of the named ``points`` with the certificate's stated weights."""
    weights = _weights_from_dict(stated_weights)
    lookup = dict(points)
    return convex_combination(list(weights.values()), [lookup[name] for name in weights])


def _verify_membership(data: dict, errors: list[str]) -> None:
    box = box_from_dict(data["inputs"]["box"])
    points = _points_for(box, data["inputs"]["cut"])
    lp = membership_lp(box, points)
    outcome = outcome_from_dict(data["outcome"])
    if not check_witness(lp, outcome):
        errors.append("LP outcome fails check_witness")
        return
    member = data["result"]["member"]
    if member != (outcome.status == "optimal"):
        errors.append("member flag disagrees with LP outcome status")
    if member and _mixture(data["result"]["weights"], points) != box:
        errors.append("weights do not reconstruct the box")


def _verify_antirobustness(data: dict, errors: list[str]) -> None:
    box = box_from_dict(data["inputs"]["box"])
    points = _points_for(box, data["inputs"]["cut"])
    lp = anti_robustness_lp(box, points)
    outcome = outcome_from_dict(data["outcome"])
    if not check_witness(lp, outcome):
        errors.append("LP outcome fails check_witness")
        return
    value = as_fraction(data["result"]["value"])
    if outcome.status != "optimal" or outcome.objective_value != value:
        errors.append("stated value disagrees with verified optimum")
        return
    local = _mixture(data["result"]["weights"], points)
    for lv, bv in zip(local.probs, box.probs):
        if lv - value * bv < 0:
            errors.append("local witness fails the admixture inequality")
            return


def _check_all_pass(data: dict, errors: list[str]) -> None:
    """The stated ``all_pass`` must say whether the checks so far found no error."""
    if data["result"]["all_pass"] is not (not errors):
        errors.append("stated all_pass disagrees with the verified checks")


def _verify_hyperplane(data: dict, errors: list[str]) -> None:
    rst = data["inputs"]["rst"]
    r, s, t = (int(b) for b in rst)
    apex = pr_box(r, s, t)
    lookup = dict(ns_vertices_2x2())
    det_lookup = dict(ns_vertices_2x2()[:16])
    seen = set()
    for entry in data["result"]["points"]:
        name = entry["vertex"]
        seen.add(name)
        vertex = lookup.get(name)
        if vertex is None:
            errors.append(f"unknown vertex {name}")
            continue
        p = as_fraction(entry["p"])
        point = mix(p, apex, vertex)
        expected = (2 - beta(vertex, r, s, t)) / (4 - beta(vertex, r, s, t))
        if p != expected:
            errors.append(f"{name}: stated p differs from the hyperplane solution")
        values, local_flag = beta_table(point)
        for v in values:
            stated = as_fraction(entry["betas"][f"{v.r}{v.s}{v.t}"])
            if stated != v.value:
                errors.append(f"{name}: stated beta_{v.r}{v.s}{v.t} differs")
        if beta(point, r, s, t) != 2:
            errors.append(f"{name}: point not on the beta = 2 hyperplane")
        if not local_flag:
            errors.append(f"{name}: point violates a CHSH facet")
        if not entry["member"]:
            errors.append(f"{name}: certificate does not claim membership")
            continue
        weights = _weights_from_dict(entry["weights"])
        if any(w < 0 for w in weights.values()) or sum(weights.values()) != 1:
            errors.append(f"{name}: membership weights not a convex combination")
            continue
        rebuilt = convex_combination(
            list(weights.values()), [det_lookup[n] for n in weights]
        )
        if rebuilt != point:
            errors.append(f"{name}: membership weights do not reconstruct the point")
    if len(seen) != 23:
        errors.append(f"expected 23 ray points, found {len(seen)}")
    _check_all_pass(data, errors)


def _verify_halfspace(data: dict, errors: list[str]) -> None:
    rst = data["inputs"]["rst"]
    r, s, t = (int(b) for b in rst)
    samples = data["inputs"]["samples"]
    seed = data["inputs"]["seed"]
    points = ray_points(r, s, t)
    boxes = [b for _, b in points]
    lookup = dict(points)
    rng = rng_from_seed(seed)
    hull_rows = data["result"]["hull_weights"]
    if len(hull_rows) != samples:
        errors.append("hull sample count mismatch")
        return
    for k in range(samples):
        expected = rational_weights(rng, len(points))
        stated = [as_fraction(w) for w in hull_rows[k]]
        if stated != expected:
            errors.append(f"hull sample {k}: weights differ from the seeded stream")
            break
        candidate = convex_combination(stated, boxes)
        if beta(candidate, r, s, t) < 2:
            errors.append(f"hull sample {k}: beta below 2")
        if not is_fully_ns(candidate).fully_ns:
            errors.append(f"hull sample {k}: not fully NS")
    half_rows = data["result"]["half_decompositions"]
    if len(half_rows) != samples:
        errors.append("halfspace sample count mismatch")
        return
    for k in range(samples):
        candidate = random_ns_box_with_min_beta(rng, r, s, t)
        weights = _weights_from_dict(half_rows[k])
        if not weights:
            errors.append(f"halfspace sample {k}: missing decomposition")
            continue
        if any(w < 0 for w in weights.values()) or sum(weights.values()) != 1:
            errors.append(f"halfspace sample {k}: weights not convex")
            continue
        rebuilt = convex_combination(
            list(weights.values()), [lookup[name] for name in weights]
        )
        if rebuilt != candidate:
            errors.append(f"halfspace sample {k}: weights do not reconstruct the sample")
    _check_all_pass(data, errors)


def _verify_broadcast(data: dict, errors: list[str]) -> None:
    rows = data["result"]["rows"]
    for entry in rows:
        alpha = as_fraction(entry["alpha"])
        instance = BroadcastInstance(alpha)
        if as_fraction(entry["p_alpha"]) != instance.p_alpha:
            errors.append(f"alpha={alpha}: stated p_alpha wrong")
        if as_fraction(entry["anti_robustness"]) != anti_robustness_closed_form(b_alpha(alpha)):
            errors.append(f"alpha={alpha}: stated anti_robustness wrong")
        lp = projection_lp(instance)
        outcome = outcome_from_dict(entry["projection"]["outcome"])
        if not check_witness(lp, outcome):
            errors.append(f"alpha={alpha}: projection outcome fails check_witness")
        if entry["projection"]["feasible"] != (outcome.status == "optimal"):
            errors.append(f"alpha={alpha}: projection verdict/status mismatch")
        if entry.get("full"):
            full_lp = full_broadcast_lp(instance)
            full_outcome = outcome_from_dict(entry["full"]["outcome"])
            if not check_witness(full_lp, full_outcome):
                errors.append(f"alpha={alpha}: full-oracle outcome fails check_witness")
            if entry["full"]["feasible"] != (full_outcome.status == "optimal"):
                errors.append(f"alpha={alpha}: full verdict/status mismatch")
            if entry["full"].get("broadcast_copy"):
                bhat = bhat_from_witness(alpha, full_outcome.witness)
                if bhat != box_from_dict(entry["full"]["broadcast_copy"]):
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
    if kind not in _VERIFIERS:
        return False, [f"unknown certificate kind {kind!r}"]
    version = data.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        return False, [f"unsupported certificate format {version!r}, expected {FORMAT_VERSION}"]
    try:
        _VERIFIERS[kind](data, errors)
    except (KeyError, ValueError, TypeError, BoxError, CertificateError) as exc:
        errors.append(f"malformed certificate: {exc!r}")
    return (not errors), errors
