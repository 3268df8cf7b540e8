"""Record the qform_large goldens: genimm's own answers for given seeds.

    python3 perfbench/record_goldens.py 0 19

Writes perfbench/goldens.json with, for every seed in the inclusive range,
the Brown invariants of the large spaces, the is_split answers of the small
ones and the Brown invariants of the direct sums, all computed by genimm.
It refuses to record a value that disagrees with the splitting reference,
so a golden is never a wrong answer written down.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

run._import_genimm()

from genimm import qform  # noqa: E402
import workloads  # noqa: E402


def record(seed: int) -> dict:
    wl = workloads.QformLarge()
    path = run._config_path(wl.name)
    try:
        inp = wl.build(seed, path)
    finally:
        path.unlink(missing_ok=True)
    cfg = inp["cfg"]
    out = {"brown": [qform.brown(s, cfg) for s in inp["large"]],
           "split": [qform.is_split(s, cfg) for s in inp["small"]],
           "sums": [qform.brown(qform.direct_sum(a, b), cfg)
                    for a, b in inp["pairs"]]}
    ref_sums = [(workloads.brown_by_splitting(a)
                 + workloads.brown_by_splitting(b)) % 8
                for a, b in inp["pairs"]]
    if (out["brown"], out["split"], out["sums"]) != (inp["brown"],
                                                     inp["split"], ref_sums):
        raise SystemExit(f"seed {seed}: genimm disagrees with the reference")
    return out


def main(argv) -> int:
    lo, hi = (int(v) for v in argv)
    data = json.loads(workloads.GOLDENS.read_text())
    for seed in range(lo, hi + 1):
        data["qform_large"][str(seed)] = record(seed)
        print(f"seed {seed}: recorded", flush=True)
    rows = sorted(data["qform_large"].items(), key=lambda kv: int(kv[0]))
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
    Path(workloads.GOLDENS).write_text(
        '{"qform_large": {\n' + body + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
