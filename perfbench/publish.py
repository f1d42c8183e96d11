"""Publish a quad-opt engine as a FLATPSD2 file and print the step timings.

Usage: ``python3 perfbench/publish.py POINTS.npy HEIGHT EPSILON SEED OUT.psdm``

Runs in its own process, so the build's memory stays out of the benchmark
and out of the server.  The last stdout line is a JSON object with the
seconds spent in each public call and the engine file's size.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


def main(argv) -> int:
    points_path, height, epsilon, seed, out = argv
    from repro.core.quadtree import build_private_quadtree
    from repro.engine.io import save_engine
    from repro.geometry import TIGER_DOMAIN

    points = np.load(points_path)
    t0 = time.monotonic()
    psd = build_private_quadtree(points, TIGER_DOMAIN, int(height), float(epsilon),
                                 variant="quad-opt", rng=int(seed))
    t1 = time.monotonic()
    engine = psd.compile()
    t2 = time.monotonic()
    save_engine(engine, out, format="mmap")
    t3 = time.monotonic()
    print(json.dumps({"build_s": t1 - t0, "compile_s": t2 - t1, "save_s": t3 - t2,
                      "file_bytes": os.path.getsize(out), "nodes": int(engine.n_nodes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
