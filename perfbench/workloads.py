"""Workload generator: one seeded CSV per workload plus the true DAG.

Each workload is built only from the package's public generators and
``write_csv``.  The program under test receives the CSV alone; the true DAG
stays with the benchmark and is used only for scoring and for choosing the
``pcsimple`` target and the IDA query.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stablepc import Dataset, Discrete, linear_sem_sample, write_csv
from stablepc.cli import random_weighted_dag
from stablepc.graphs import Dag


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    density: float
    n: int
    # Seed of the DAG and its edge weights.  The benchmark's --seed draws
    # only the sample, so every seed measures the same graph; random graphs
    # of one density differ by about a fifth in CI tests, which would swamp
    # a run-to-run bound.  --seed equal to graph_seed reproduces `stablepc
    # gen --seed graph_seed` exactly.
    graph_seed: int
    indep_test: str
    # Byte budget for the `--mem-efficient` variant, chosen so the largest
    # level (level 0, p(p-1)/2 tasks) splits into about eight batches under
    # the planner's per-task estimate (704 B per Gaussian level-0 task,
    # 528 B per discrete one).
    mem_budget: int
    discretize: bool = False


WORKLOADS = {
    w.name: w for w in (
        # ROADMAP's G500 (`stablepc gen --p 500 --density 0.005 --n 100
        # --seed 42`).  Level 0 has 124,750 one-test edges, so the skeleton
        # engine's own Python bookkeeping is about 85 % of skeleton time and
        # the CI calls are cheap.  The CSV is only 1 MB and Meek's rules run
        # over p = 500.  Two workers gain almost nothing here, which exposes
        # dispatch and pickling cost.
        Workload("gauss-wide", p=500, density=0.005, n=100, graph_seed=42,
                 indep_test="fisher-z", mem_budget=11 * 1024 * 1024),
        # ROADMAP's G200 (`stablepc gen --p 200 --density 0.02 --n 5000
        # --seed 1`).  Levels 1-2 carry most of the CI tests and the CI
        # arithmetic is about 88 % of skeleton time; the 19 MB CSV makes
        # ingestion a visible share.  A kernel or ingestion change shows
        # here, a bookkeeping change barely moves.  Runnable by hand but not
        # listed in BENCHMARK.json: with a third workload of this size the
        # benchmark's time budget leaves one sample per command.
        Workload("gauss-deep", p=200, density=0.02, n=5000, graph_seed=1,
                 indep_test="fisher-z", mem_budget=1750 * 1024),
        # The only workload that reaches the contingency tables, the discrete
        # sufficient statistic and discrete ingestion: a linear SEM cut at
        # each column's tertiles into arity 3, run with G^2, which is almost
        # all of its skeleton time.  It is the low-arity case, where bounding
        # the contingency tables must not cost time.  High arity is left out
        # on purpose: unbounded tables at arity 32 need gigabytes at level 4.
        Workload("discrete-g2", p=80, density=0.05, n=4000, graph_seed=7,
                 indep_test="g-sq", mem_budget=208 * 1024, discretize=True),
    )
}


@dataclass(frozen=True)
class Instance:
    """A generated workload: the CSV the program reads and the truth."""

    csv: Path
    dag: Dag

    @property
    def hub(self) -> int:
        """Highest-degree node of the true DAG; ties go to the lowest index."""
        degree = [len(self.dag.parents[v]) + len(self.dag.children(v))
                  for v in range(self.dag.p)]
        return max(range(self.dag.p), key=lambda v: (degree[v], -v))

    @property
    def ida_outcome(self) -> int:
        """The hub's lowest-index true descendant, else the lowest other node."""
        below = self.dag.descendants(self.hub) - {self.hub}
        if below:
            return min(below)
        return 0 if self.hub != 0 else 1


def tertile_codes(values: np.ndarray) -> np.ndarray:
    """Cut each column at its sample tertiles into codes 0, 1, 2."""
    codes = np.empty(values.shape, dtype=float)
    for v in range(values.shape[1]):
        cuts = np.quantile(values[:, v], [1.0 / 3.0, 2.0 / 3.0])
        codes[:, v] = np.searchsorted(cuts, values[:, v], side="right")
    return codes


def generate(workload: Workload, seed: int, directory: Path) -> Instance:
    """Write ``data.csv`` for one workload and sample seed; same seed, same
    bytes.  The DAG comes from the workload's graph seed, drawn as `stablepc
    gen` draws it, so the Gaussian workloads at their graph seeds are the
    ROADMAP's bench set.
    """
    rng = np.random.default_rng(workload.graph_seed)
    dag, weights = random_weighted_dag(workload.p, workload.density, rng)
    dataset = linear_sem_sample(dag, weights, workload.n, noise_seed=seed)
    if workload.discretize:
        dataset = Dataset(tertile_codes(dataset.values), dataset.names,
                          tuple(Discrete(3) for _ in range(dataset.p)))
    directory.mkdir(parents=True, exist_ok=True)
    csv = directory / "data.csv"
    write_csv(dataset, csv)
    return Instance(csv, dag)
