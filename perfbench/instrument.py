"""Spans and deterministic counters recorded from outside boxcert.

The benchmark never edits boxcert.  It replaces public functions by
wrappers: in the module that defines each one, and in every boxcert module
that imported it by name (``from .ratlp import solve`` binds its own
reference, so patching ``boxcert.ratlp`` alone would miss the calls made
from ``boxcert.polytope``).

Two kinds of wrapper exist:

* count hooks (``COUNT_TARGETS``), installed in every run: they bump
  integer counters of the current request and read no clock, like the
  solver statistics the roadmap plans for ``solve()``;
* spans (``TARGETS``), installed only for the traced replay: each call
  inside a request records ``(name, function, start, end, parent,
  request)``, where ``name`` is the layer part the span is charged to.
  Spans stay in memory and are written out when the run ends.

A layer's self time is the time of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Counts:
    """Deterministic work counters of one request or a sum of requests."""

    solve_calls: int = 0
    lp_rows_max: int = 0
    lp_cols_max: int = 0
    lp_nonzeros: int = 0
    cert_max_bits: int = 0
    box_constructed: int = 0
    cert_bytes: int = 0

    def add(self, other: "Counts") -> None:
        self.solve_calls += other.solve_calls
        self.lp_rows_max = max(self.lp_rows_max, other.lp_rows_max)
        self.lp_cols_max = max(self.lp_cols_max, other.lp_cols_max)
        self.lp_nonzeros += other.lp_nonzeros
        self.cert_max_bits = max(self.cert_max_bits, other.cert_max_bits)
        self.box_constructed += other.box_constructed
        self.cert_bytes += other.cert_bytes

    def as_metrics(self) -> dict[str, int]:
        names = {
            "solve_calls": "ratlp.solve_calls",
            "lp_rows_max": "ratlp.lp_rows_max",
            "lp_cols_max": "ratlp.lp_cols_max",
            "lp_nonzeros": "ratlp.lp_nonzeros",
            "cert_max_bits": "ratlp.cert_max_bits",
            "box_constructed": "box.constructed",
            "cert_bytes": "certificates.bytes",
        }
        return {names[k]: v for k, v in asdict(self).items()}


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _count_solve(counts: Counts, args, kwargs, outcome) -> None:
    lp = args[0] if args else kwargs["lp"]
    counts.solve_calls += 1
    counts.lp_rows_max = max(counts.lp_rows_max, len(lp.constraints))
    counts.lp_cols_max = max(counts.lp_cols_max, len(lp.variables))
    counts.lp_nonzeros += sum(len(con.coeffs) for con in lp.constraints)
    for vector in (outcome.witness, outcome.dual, outcome.farkas):
        if vector:
            counts.cert_max_bits = max(
                counts.cert_max_bits, max(_bits(v) for v in vector.values())
            )


def _count_box(counts: Counts, args, kwargs, result) -> None:
    counts.box_constructed += 1


# (module, attribute, span name); "Box.__post_init__" names a method.
COUNT_TARGETS = (
    ("ratlp", "solve", "ratlp.solve"),
    ("box", "Box.__post_init__", "box.validate"),
)

TARGETS = COUNT_TARGETS + (
    ("ratlp", "check_witness", "ratlp.check"),
    ("polytope", "membership_lp", "polytope.lp_build"),
    ("polytope", "anti_robustness_lp", "polytope.lp_build"),
    ("polytope", "lr_membership", "polytope"),
    ("polytope", "anti_robustness", "polytope"),
    ("polytope", "anti_robustness_closed_form", "polytope"),
    ("polytope", "hyperplane_locality_check", "polytope"),
    ("polytope", "halfspace_body_equality_check", "polytope"),
    ("polytope", "ray_intersection", "polytope"),
    ("polytope", "ray_points", "polytope"),
    ("broadcast", "projection_lp", "broadcast.lp_build"),
    ("broadcast", "full_broadcast_lp", "broadcast.lp_build"),
    ("broadcast", "projection_feasibility", "broadcast"),
    ("broadcast", "full_broadcast_feasibility", "broadcast"),
    ("broadcast", "broadcast_scan", "broadcast"),
    ("broadcast", "box_from_correlators", "broadcast"),
    ("box", "mix", "box.mix"),
    ("box", "convex_combination", "box.mix"),
    ("box", "b_alpha", "box.mix"),
    ("box", "is_fully_ns", "box.ns_check"),
    ("box", "is_ns_in_cut", "box.ns_check"),
    ("box", "marginal", "box.ns_check"),
    ("twirl", "twirl", "twirl"),
    ("twirl", "apply_relabeling", "twirl"),
    ("twirl", "line_decomposition", "twirl"),
    ("chsh", "beta", "chsh"),
    ("chsh", "beta_table", "chsh"),
    ("chsh", "max_beta", "chsh"),
    ("sampling", "rng_from_seed", "sampling"),
    ("sampling", "rational_weights", "sampling"),
    ("sampling", "random_rational", "sampling"),
    ("sampling", "random_ns_box", "sampling"),
    ("sampling", "random_ns_box_with_min_beta", "sampling"),
    ("vertices", "local_vertices_2x2", "vertices"),
    ("vertices", "pr_vertices", "vertices"),
    ("vertices", "ns_vertices_2x2", "vertices"),
    ("vertices", "broadcast_local_vertices", "vertices"),
    ("certificates", "membership_certificate", "certificates.build"),
    ("certificates", "antirobustness_certificate", "certificates.build"),
    ("certificates", "hyperplane_certificate", "certificates.build"),
    ("certificates", "halfspace_certificate", "certificates.build"),
    ("certificates", "scan_certificate", "certificates.build"),
    ("certificates", "save_certificate", "certificates.build"),
    ("certificates", "verify_certificate", "certificates.verify"),
    ("certificates", "load_certificate", "certificates.verify"),
    ("boxio", "box_from_dict", "boxio.parse"),
    ("boxio", "load_box", "boxio.parse"),
    ("cli", "main", "cli"),
)

_COUNTERS = {"ratlp.solve": _count_solve, "box.validate": _count_box}

# span name -> per-layer metric holding that span's self time
SELF_TIME_METRICS = {
    "ratlp.solve": "ratlp.solve_self_s",
    "ratlp.check": "ratlp.check_s",
    "polytope.lp_build": "polytope.lp_build_s",
    "polytope": "polytope.self_s",
    "broadcast.lp_build": "broadcast.lp_build_s",
    "broadcast": "broadcast.self_s",
    "box.validate": "box.validate_s",
    "box.mix": "box.mix_s",
    "box.ns_check": "box.ns_check_s",
    "twirl": "twirl.apply_s",
    "chsh": "chsh.beta_s",
    "sampling": "sampling.draw_s",
    "certificates.build": "certificates.build_s",
    "certificates.verify": "certificates.verify_s",
    "boxio.parse": "boxio.parse_s",
    "cli": "cli.self_s",
}


class Instrument:
    """Installs wrappers into the loaded boxcert modules and records into them."""

    def __init__(self):
        self.tracing = False
        self.request: int | None = None
        self.counts: Counts | None = None
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets, tracing: bool) -> None:
        self.uninstall()
        self.tracing = tracing
        for module_name, attr, span_name in targets:
            module = sys.modules[f"boxcert.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(original, span_name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name)
            for name, loaded in list(sys.modules.items()):
                if name != "boxcert" and not name.startswith("boxcert."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.tracing = False

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, span_name: str):
        count = _COUNTERS.get(span_name)
        function = f"{fn.__module__}.{fn.__qualname__}"
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inst.tracing or inst.request is None:
                result = fn(*args, **kwargs)
            else:
                spans, stack = inst.spans, inst._stack
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (span_name, function, start, end, parent, inst.request)
            if count is not None and inst.counts is not None:
                count(inst.counts, args, kwargs, result)
            return result

        return wrapper

    # -- requests ----------------------------------------------------------

    def begin(self, request: int) -> Counts:
        """Start a request: later spans and counts belong to it."""
        self.request = request
        self.counts = Counts()
        if self.tracing:
            self._stack.append(len(self.spans))
            self.spans.append(("request", "", perf_counter(), None, -1, request))
        return self.counts

    @contextmanager
    def paused(self):
        """Run benchmark-side work (references, digests) unrecorded and uncounted."""
        saved = self.request, self.counts
        self.request = self.counts = None
        try:
            yield
        finally:
            self.request, self.counts = saved

    def end(self) -> None:
        if self.tracing:
            index = self._stack.pop()
            name, function, start, _, parent, request = self.spans[index]
            self.spans[index] = (name, function, start, perf_counter(), parent, request)
        self.request = None
        self.counts = None

    # -- analysis ----------------------------------------------------------

    def self_times(self, requests) -> dict[str, float]:
        """Self time per span name, summed over the given request ids."""
        wanted = set(requests)
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, _, start, end, _, request) in enumerate(self.spans):
            if request in wanted:
                totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def inclusive_time(self, name: str, requests) -> float:
        """Time of the outermost spans called ``name`` in the given requests."""
        wanted = set(requests)
        total = 0.0
        for span_name, _, start, end, parent, request in self.spans:
            outermost = parent < 0 or self.spans[parent][0] != name
            if span_name == name and request in wanted and outermost:
                total += end - start
        return total

    def write_spans(self, path) -> None:
        fields = ("name", "function", "start", "end", "parent", "request")
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **dict(zip(fields, span))}) + "\n")
