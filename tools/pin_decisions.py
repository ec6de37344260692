#!/usr/bin/env python3
"""Print the pinned decisions of a checkout, one line per call.

    python3 tools/pin_decisions.py SRC_DIR > tests/decision_pins.txt

``SRC_DIR`` is the ``src/`` directory of the checkout to run; the calls
are the twenty-six of ``tests/decision_pins.py`` next to this script (its
docstring says what a line holds), so two checkouts are compared by
running each and diffing, and a change that is meant to move decisions
rebuilds the committed file by running this on its own ``src/``.  BLAS
runs on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise; the
decisions do not depend on it.  A run takes about 1 s.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", type=Path, help="the src/ directory of the checkout to run")
    args = p.parse_args(argv)
    if not (args.src_dir / "spectra_rrqr" / "__init__.py").is_file():
        p.error(f"no package source under {args.src_dir}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(args.src_dir.resolve()), str(TESTS)]
    import decision_pins

    for label in decision_pins.CALLS:
        print(decision_pins.line(label), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
