"""The three workloads.  Each is a closed loop with one caller.

A workload turns a seed into a stream of requests and runs one request at
a time through boxcert's public functions, waiting for each verdict before
asking for the next.  ``run_item`` returns the request's timings, the
outcome of every correctness reference and a fingerprint of its outputs.
References are computed with recording paused, outside every timing.

Every end-to-end metric is measured on every workload:

========================  ==================  ====================  ===================
metric                    small-lp-stream     four-party-oracle     cert-roundtrip
========================  ==================  ====================  ===================
verdict latency           each 2x2 verdict    each oracle verdict   each CLI command
oracle_farkas_s           projection 13/16    full oracle 13/16     broadcast-check 13/16
oracle_witness_s          projection 4/5      full oracle 4/5       broadcast-check 4/5
emit_s                    3 certs of 1 box    scan cert of both     all emitting verbs
verify_s                  verify-cert         verify-cert           verify-cert on each
========================  ==================  ====================  ===================

four-party-oracle is runnable but not listed in BENCHMARK.json: one pass
takes over 20 s, so a run holds one sample of each verdict (see README.md).
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import boxcert
import boxcert.cli
from instrument import Counts, Instrument

F = Fraction
FARKAS_ALPHA = F(13, 16)  # above 4/5: infeasible, answered by a Farkas vector
WITNESS_ALPHA = F(4, 5)  # inside (3/4, 4/5]: feasible, answered by a witness
REFERENCE_SEED = 0  # deterministic counts and traced replays use this seed


@dataclass
class Context:
    tmp: Path
    digests: dict
    inst: Instrument


@dataclass
class ItemResult:
    ops: int = 0
    failures: list = field(default_factory=list)
    verdict_ms: list = field(default_factory=list)
    farkas_s: float = 0.0
    witness_s: float = 0.0
    emit_s: float = 0.0
    verify_s: float = 0.0
    cert_bytes: int = 0
    fingerprint: list = field(default_factory=list)
    counts: Counts | None = None
    wall_s: float = 0.0
    crashed: bool = False

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)


def run_cli(argv) -> tuple[int, float]:
    """``boxcert <argv>`` in-process, output captured: (exit code, seconds)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = boxcert.cli.main([str(a) for a in argv])
        return code, perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def closed_form(box) -> Fraction:
    """Anti-robustness from the CHSH values alone: 6/(beta*+4) if beta* >= 2, else 1."""
    _, best = boxcert.max_beta(box)
    return F(6) / (best + 4) if best >= 2 else F(1)


def draw_box(rng, index: int):
    """Even draws: any NS box; odd draws: a box with beta_rst >= 2.

    Returns the box and the (r, s) of the twirl to apply to it; for odd
    draws that is the (r, s) the box was drawn around, so the twirl keeps
    its CHSH value and with it the anti-robustness.
    """
    if index % 2 == 0:
        box = boxcert.sampling.random_ns_box(rng)
        rs = (rng.randint(0, 1), rng.randint(0, 1))
    else:
        r, s, t = (rng.randint(0, 1) for _ in range(3))
        box = boxcert.sampling.random_ns_box_with_min_beta(rng, r, s, t)
        rs = (r, s)
    return box, rs


class SmallLpStream:
    """A seeded stream of 2x2 NS boxes; three certified verdicts per box.

    One request is a batch of ``boxes_per_item`` boxes.  Per box:
    anti_robustness(box), anti_robustness(twirl(box, r, s)) and
    lr_membership(box), each followed by check_witness.  Per request: the
    first box's three certificates are written to one file and re-checked
    with verify-cert, and the two projection-oracle verdicts are timed.
    Batching spends most of a run on verdicts, which are the hot path.
    """

    name = "small-lp-stream"
    tables = ("ns_vertices_2x2",)
    boxes_per_item = 4
    reference_items = 16
    ops_per_item = 3 * boxes_per_item + 4

    def reference_in_stream(self, seed: int) -> bool:
        return seed == REFERENCE_SEED

    def new_stream(self, seed: int, ctx: Context):
        return boxcert.sampling.rng_from_seed(seed)

    def run_item(self, rng, index: int, ctx: Context) -> ItemResult:
        res = ItemResult()
        verdicts = []
        for k in range(self.boxes_per_item):
            box, (r, s) = draw_box(rng, index * self.boxes_per_item + k)
            t0 = perf_counter()
            ar = boxcert.anti_robustness(box)
            ok_ar = boxcert.check_witness(ar.lp, ar.outcome)
            t1 = perf_counter()
            twirled = boxcert.twirl(box, r, s)
            ar_tw = boxcert.anti_robustness(twirled)
            ok_tw = boxcert.check_witness(ar_tw.lp, ar_tw.outcome)
            t2 = perf_counter()
            member = boxcert.lr_membership(box)
            ok_member = boxcert.check_witness(member.lp, member.outcome)
            t3 = perf_counter()
            res.verdict_ms += [(t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3]
            verdicts.append((box, (r, s), twirled, ar, ok_ar, ar_tw, ok_tw, member, ok_member))

        box, _, twirled, ar, _, ar_tw, _, member, _ = verdicts[0]
        path = ctx.tmp / "stream-certificates.json"
        t0 = perf_counter()
        certificates = [
            boxcert.antirobustness_certificate(box, ar),
            boxcert.antirobustness_certificate(twirled, ar_tw),
            boxcert.membership_certificate(box, member),
        ]
        boxcert.certificates.save_certificate(certificates, path)
        res.emit_s = perf_counter() - t0
        code, res.verify_s = run_cli(["verify-cert", path])

        t0 = perf_counter()
        farkas = boxcert.projection_feasibility(boxcert.BroadcastInstance(FARKAS_ALPHA))
        ok_farkas = boxcert.check_witness(farkas.lp, farkas.outcome)
        t1 = perf_counter()
        witness = boxcert.projection_feasibility(boxcert.BroadcastInstance(WITNESS_ALPHA))
        ok_witness = boxcert.check_witness(witness.lp, witness.outcome)
        t2 = perf_counter()
        res.farkas_s, res.witness_s = t1 - t0, t2 - t1

        with ctx.inst.paused():
            for box, (r, s), twirled, ar, ok_ar, ar_tw, ok_tw, member, ok_member in verdicts:
                local_flag = boxcert.beta_table(box)[1]
                keeps_beta = max(boxcert.beta(box, r, s, 0), boxcert.beta(box, r, s, 1)) >= 2
                res.check(
                    ok_ar and ar.value == closed_form(box),
                    "anti_robustness(box) != 6/(beta*+4)",
                )
                res.check(
                    ok_tw
                    and ar_tw.value == closed_form(twirled)
                    and (not keeps_beta or ar_tw.value == ar.value),
                    "anti_robustness(twirl(box)) disagrees with the closed form",
                )
                res.check(
                    ok_member and member.member == local_flag, "membership != beta_table flag"
                )
                res.fingerprint += [str(ar.value), str(ar_tw.value), member.member]
            res.check(path.exists(), "certificate file not written")
            res.check(code == 0, "verify-cert rejected the stream certificates")
            res.check(ok_farkas and not farkas.feasible, "projection 13/16 not infeasible")
            res.check(ok_witness and witness.feasible, "projection 4/5 not feasible")
            res.cert_bytes = path.stat().st_size
            res.fingerprint.append(sha256(path))
        return res


class FourPartyOracle:
    """The full 4-party broadcast oracle at alpha = 13/16 and alpha = 4/5.

    One request is one pass: both verdicts (build, solve, witness rebuild,
    check_witness), the scan certificate of the two rows, and verify-cert
    on it.  The inputs do not depend on the seed.
    """

    name = "four-party-oracle"
    tables = ("ns_vertices_2x2", "broadcast_local_vertices")
    reference_items = 1
    ops_per_item = 4
    emit_reps = 5  # the emit takes milliseconds; its median over reps is steadier

    def reference_in_stream(self, seed: int) -> bool:
        return True

    def new_stream(self, seed: int, ctx: Context):
        return None

    def run_item(self, stream, index: int, ctx: Context) -> ItemResult:
        res = ItemResult()
        t0 = perf_counter()
        high = boxcert.BroadcastInstance(FARKAS_ALPHA)
        farkas = boxcert.full_broadcast_feasibility(high)
        ok_farkas = boxcert.check_witness(farkas.lp, farkas.outcome)
        t1 = perf_counter()
        low = boxcert.BroadcastInstance(WITNESS_ALPHA)
        witness = boxcert.full_broadcast_feasibility(low)
        ok_witness = boxcert.check_witness(witness.lp, witness.outcome)
        t2 = perf_counter()
        res.farkas_s, res.witness_s = t1 - t0, t2 - t1
        res.verdict_ms = [res.farkas_s * 1e3, res.witness_s * 1e3]

        path = ctx.tmp / "oracle-scan.json"
        emit_times = []
        for _ in range(self.emit_reps):
            t0 = perf_counter()
            rows = tuple(
                boxcert.broadcast.ScanRow(
                    instance.alpha,
                    instance.p_alpha,
                    boxcert.projection_feasibility(instance),
                    verdict,
                    boxcert.anti_robustness(boxcert.b_alpha(instance.alpha)).value,
                )
                for instance, verdict in ((low, witness), (high, farkas))
            )
            certificate = boxcert.scan_certificate(boxcert.ScanReport(rows))
            boxcert.certificates.save_certificate(certificate, path)
            emit_times.append(perf_counter() - t0)
        res.emit_s = statistics.median(emit_times)
        code, res.verify_s = run_cli(["verify-cert", path])

        with ctx.inst.paused():
            digest = sha256(path)
            res.check(ok_farkas and not farkas.feasible, "full oracle 13/16 not infeasible")
            res.check(ok_witness and witness.feasible, "full oracle 4/5 not feasible")
            res.check(
                digest == ctx.digests[self.name].get("scan"),
                "scan certificate differs from the recorded digest",
            )
            res.check(code == 0, "verify-cert rejected the oracle certificate")
            res.cert_bytes = path.stat().st_size
            res.fingerprint = [farkas.feasible, witness.feasible, digest]
        return res


# Inputs of cert-roundtrip come from a fixed catalogue so that every emitted
# file has a digest recorded in digests.json; the seed picks from it.
CATALOGUE_SEED = 2011
CATALOGUE_BOXES = 32
HALFSPACE_SEEDS = 8
HALFSPACE_SAMPLES = 8
BOXES_PER_ROUND = 2
SCAN_GRID = "3/4:1:1/32"


def roundtrip_catalogue():
    """Catalogue box j and the (r, s) of its twirl."""
    rng = boxcert.sampling.rng_from_seed(CATALOGUE_SEED)
    return [draw_box(rng, j) for j in range(CATALOGUE_BOXES)]


def roundtrip_emits(tmp: Path, rst: str, seed: int, boxes):
    """The emitting commands of one round.

    Yields (digest key, argv, expected exit code, output path, is a
    certificate).  ``boxes`` holds (catalogue index, box file, (r, s)).
    """
    yield (
        f"hyperplane:{rst}:{seed}",
        ["hyperplane-check", "--rst", rst, "--samples", HALFSPACE_SAMPLES,
         "--seed", seed, "--json", tmp / "hyperplane.json"],
        0,
        tmp / "hyperplane.json",
        True,
    )
    # exit 1: the grid crosses (3/4, 4/5], where no-broadcasting cannot be certified
    yield ("scan", ["scan", "--alpha-grid", SCAN_GRID, "--json", tmp / "scan.json"],
           1, tmp / "scan.json", True)
    yield ("broadcast:13/16", ["broadcast-check", "--alpha", "13/16", "--json",
           tmp / "farkas.json"], 0, tmp / "farkas.json", True)
    yield ("broadcast:4/5", ["broadcast-check", "--alpha", "4/5", "--json",
           tmp / "witness.json"], 1, tmp / "witness.json", True)
    for slot, (j, box_path, (r, s)) in enumerate(boxes):
        ar = tmp / f"ar{slot}.json"
        twirled = tmp / f"twirled{slot}.json"
        ar_tw = tmp / f"ar-twirled{slot}.json"
        yield (f"antirobustness:{j}", ["antirobustness", box_path, "--json", ar], 0, ar, True)
        yield (f"twirl:{j}", ["twirl", box_path, "--rs", f"{r}{s}", "--json", twirled],
               0, twirled, False)
        yield (f"antirobustness-twirl:{j}", ["antirobustness", twirled, "--json", ar_tw],
               0, ar_tw, True)


class CertRoundtrip:
    """Emit certificates through the CLI verbs, then verify-cert every one.

    One request is one round: hyperplane-check on a seeded apex and
    sample seed, the alpha scan, broadcast-check at 13/16 and 4/5, and
    antirobustness on two catalogue boxes and on their twirls.
    """

    name = "cert-roundtrip"
    tables = ("ns_vertices_2x2",)
    reference_items = 4
    ops_per_item = 10 + 8  # emitting commands + certificates verified

    def reference_in_stream(self, seed: int) -> bool:
        return seed == REFERENCE_SEED

    def new_stream(self, seed: int, ctx: Context):
        with ctx.inst.paused():
            box_files = []
            for j, (box, rs) in enumerate(roundtrip_catalogue()):
                path = ctx.tmp / f"catalogue-{j}.json"
                boxcert.save_box(box, path)
                box_files.append((path, rs))
        return boxcert.sampling.rng_from_seed(seed), box_files

    def run_item(self, stream, index: int, ctx: Context) -> ItemResult:
        rng, box_files = stream
        res = ItemResult()
        rst = "".join(str(rng.randint(0, 1)) for _ in range(3))
        seed = rng.randrange(HALFSPACE_SEEDS)
        picks = [rng.randrange(CATALOGUE_BOXES) for _ in range(BOXES_PER_ROUND)]
        boxes = [(j, box_files[j][0], box_files[j][1]) for j in picks]
        recorded = ctx.digests[self.name]

        emitted = []
        for key, argv, expected, out, is_cert in roundtrip_emits(ctx.tmp, rst, seed, boxes):
            code, elapsed = run_cli(argv)
            res.verdict_ms.append(elapsed * 1e3)
            res.emit_s += elapsed
            if key == "broadcast:13/16":
                res.farkas_s = elapsed
            elif key == "broadcast:4/5":
                res.witness_s = elapsed
            with ctx.inst.paused():
                digest = sha256(out) if out.exists() else None
                ok = code == expected and digest is not None and digest == recorded.get(key)
                if ok and key.startswith("antirobustness"):
                    value = json.loads(out.read_text())["result"]["value"]
                    box = boxcert.load_box(argv[1])
                    ok = boxcert.rational.parse_rational(value) == closed_form(box)
                res.check(ok, f"{key}: wrong exit code, digest or value")
                if is_cert:
                    emitted.append(out)
                    res.cert_bytes += out.stat().st_size
                res.fingerprint.append((key, code, digest))

        for out in emitted:
            code, elapsed = run_cli(["verify-cert", out])
            res.verdict_ms.append(elapsed * 1e3)
            res.verify_s += elapsed
            res.check(code == 0, f"verify-cert rejected {out.name}")
            res.fingerprint.append((out.name, code))
        return res


WORKLOADS = {w.name: w for w in (SmallLpStream(), FourPartyOracle(), CertRoundtrip())}
