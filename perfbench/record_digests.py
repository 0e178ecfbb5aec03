"""Record the sha256 of every file the benchmark compares byte for byte.

Certificates must stay byte-identical, so the workloads compare each
emitted file with the digest stored in ``digests.json``.  Run this from
the repository root only when a change is meant to alter certificates::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
from pathlib import Path

from run import HERE, OUT  # first: puts this checkout's src on sys.path

import boxcert
from instrument import Instrument
from workloads import (
    HALFSPACE_SEEDS,
    WORKLOADS,
    Context,
    roundtrip_catalogue,
    roundtrip_emits,
    run_cli,
    sha256,
)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
    try:
        roundtrip = {}
        boxes = []
        for j, (box, rs) in enumerate(roundtrip_catalogue()):
            path = tmp / f"catalogue-{j}.json"
            boxcert.save_box(box, path)
            boxes.append((j, path, rs))
        for bits in itertools.product("01", repeat=3):
            for seed in range(HALFSPACE_SEEDS):
                key, argv, _, out, _ = next(roundtrip_emits(tmp, "".join(bits), seed, []))
                run_cli(argv)
                roundtrip[key] = sha256(out)
        for key, argv, _, out, _ in itertools.islice(roundtrip_emits(tmp, "000", 0, boxes), 1, None):
            run_cli(argv)
            roundtrip[key] = sha256(out)

        oracle = WORKLOADS["four-party-oracle"]
        ctx = Context(tmp, {oracle.name: {}}, Instrument())
        result = oracle.run_item(None, 0, ctx)
        digests = {
            "cert-roundtrip": dict(sorted(roundtrip.items())),
            oracle.name: {"scan": result.fingerprint[-1]},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
