"""The benchmark's fixed synthetic grid workloads.

Each workload turns the benchmark's data seed into an ``ExperimentConfig``;
the program under test only ever sees that config.  Why each workload exists,
and which layer it loads, is written down in README.md.
"""

from dataclasses import dataclass
from typing import Optional

ALL_METHODS = ("graph-ssl", "hypergraph-ssl", "gcn", "hgnn", "hgnn-proposed")
NOISE_LEVELS = (0.0, 0.15, 0.30, 0.45)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dim: int
    pca_dims: Optional[int]
    methods: tuple
    noise_levels: tuple
    seeds: tuple
    # "none": no operator cache; "cold": every grid writes a fresh empty
    # cache directory; "warm": another process primes the cache first.
    cache: str
    # Timed prepare_experiment calls per run, counting the ones inside grids.
    setup_samples: int

    def config(self, data_seed: int):
        from hgssl.bench import ExperimentConfig, SyntheticSpec
        return ExperimentConfig(
            dataset="synthetic",
            methods=self.methods,
            noise_levels=self.noise_levels,
            seeds=self.seeds,
            pca_dims=self.pca_dims,
            synthetic=SyntheticSpec(n=self.n, classes=10, dim=self.dim,
                                    spread=1.0, seed=data_seed),
        )


WORKLOADS = {w.name: w for w in (
    Workload("noise-grid", n=2000, dim=784, pca_dims=50, methods=ALL_METHODS,
             noise_levels=NOISE_LEVELS, seeds=(0,), cache="none", setup_samples=9),
    Workload("raw-wide", n=3000, dim=784, pca_dims=None,
             methods=("graph-ssl", "hypergraph-ssl", "hgnn-proposed"),
             noise_levels=(0.45,), seeds=(0,), cache="cold", setup_samples=1),
    Workload("ssl-cached", n=12000, dim=50, pca_dims=None,
             methods=("graph-ssl", "hypergraph-ssl"),
             noise_levels=NOISE_LEVELS, seeds=(0, 1, 2, 3, 4), cache="warm",
             setup_samples=25),
)}
