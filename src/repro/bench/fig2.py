"""Figure 2: memory usage of an image-blurring function vs input byte
size (top) and vs its sigma argument (bottom).

The paper's point: neither feature alone determines memory usage, so a
multi-feature learned model is required.  The driver reproduces both
scatter plots as data series and quantifies the residual spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


@dataclass
class Fig2Result:
    #: (input byte size, memory MB) scatter — Figure 2 top.
    by_size: List[Tuple[float, float]]
    #: (sigma, memory MB) scatter — Figure 2 bottom.
    by_sigma: List[Tuple[float, float]]
    #: Memory spread (MB) among samples in the same byte-size decile.
    spread_at_fixed_size_mb: float
    #: Memory spread (MB) among samples with nearly the same sigma.
    spread_at_fixed_sigma_mb: float


def run_fig2(n: int, seed: int = 0) -> Fig2Result:
    model = get_function_model("wand_blur")
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    by_size, by_sigma = [], []
    samples = []
    for _ in range(n):
        media = corpus.image()
        args = model.sample_args(rng)
        memory = model.footprint_mb(media, args, rng)
        by_size.append((float(media.size), memory))
        by_sigma.append((float(args["sigma"]), memory))
        samples.append((media.size, args["sigma"], memory))
    sizes = np.array([s[0] for s in samples])
    sigmas = np.array([s[1] for s in samples])
    mems = np.array([s[2] for s in samples])
    # Spread within one byte-size decile (middle decile).
    lo, hi = np.percentile(sizes, [45, 55])
    bucket = mems[(sizes >= lo) & (sizes <= hi)]
    spread_size = float(bucket.max() - bucket.min()) if len(bucket) > 1 else 0.0
    # Spread within a narrow sigma band.
    band = mems[np.abs(sigmas - 3.0) < 0.5]
    spread_sigma = float(band.max() - band.min()) if len(band) > 1 else 0.0
    return Fig2Result(
        by_size=by_size,
        by_sigma=by_sigma,
        spread_at_fixed_size_mb=spread_size,
        spread_at_fixed_sigma_mb=spread_sigma,
    )
