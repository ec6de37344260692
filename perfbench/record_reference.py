"""Record the reference ranks of the swap-det Stewart pool.

Runs the deterministic ``srrqr`` (tolerance mode, f=1.1, tau=1e-10) on each
matrix seed of the pool and writes the returned rank and interchange count
to ``reference_k.json``.  The file was produced at the seed commit; rerun it
only to extend the pool, never to accept a changed rank:

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spectra_rrqr import srrqr, testmat  # noqa: E402
from spectra_rrqr.srrqr import SrrqrConfig, Tolerance  # noqa: E402

from workloads import F_SWAP, REFERENCE_FILE, TAU, stewart_key  # noqa: E402

POOL = 32
SIZES = [(2048, 256, 0.8), (1024, 128, 0.6)]


def main() -> None:
    out = {}
    for m, n, q in SIZES:
        ks, swaps = {}, {}
        for s in range(POOL):
            mat = testmat.generate(testmat.MatrixSpec(testmat.Stewart(m=m, n=n, q=q), seed=s))
            res = srrqr(mat, SrrqrConfig(f=F_SWAP, mode=Tolerance(TAU)), want_q=False)
            ks[str(s)], swaps[str(s)] = res.k, res.swap_count
            print(stewart_key(m, n, q), s, res.k, res.swap_count, flush=True)
        out[stewart_key(m, n, q)] = {"f": F_SWAP, "tau": TAU, "k": ks, "swap_count": swaps}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
