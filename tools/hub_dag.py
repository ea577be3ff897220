"""A seeded hub-shaped dataset: a preferential-attachment DAG and a sample
of its linear SEM, written as ``stablepc gen`` writes its output.

    python3 tools/hub_dag.py --p 500 --n 500 [--m 1] [--seed 11] --output DIR

Run from anywhere; the package is imported from ``src/``.  Node v = 1, 2,
... takes min(m, v) distinct parents among the nodes before it, each drawn
with probability proportional to its degree so far plus one (Barabasi and
Albert, Science 1999), so a few early nodes become hubs.  The edge weights
are drawn as ``random_weighted_dag`` draws them, uniform in [0.5, 2] with a
random sign, in sorted edge order, from the same generator; the sample is
``linear_sem_sample`` with the seed as its noise seed.  ``DIR/data.csv``
and ``DIR/truth.json`` are byte for byte the same for the same arguments.
One line goes to standard output: the edges, the largest degree and the
range of the column variances, which compound along chains out of a hub.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stablepc import Dag, write_csv  # noqa: E402
from stablepc.cli import _truth_json_dict, _write_json  # noqa: E402
from stablepc.inference import linear_sem_sample  # noqa: E402


def hub_dag(p: int, m: int, rng: np.random.Generator
            ) -> tuple[Dag, dict[tuple[int, int], float]]:
    """The preferential-attachment DAG over p nodes and its edge weights."""
    degree = np.zeros(p)
    parents: list[list[int]] = [[]]
    for v in range(1, p):
        odds = degree[:v] + 1
        chosen = rng.choice(v, size=min(m, v), replace=False, p=odds / odds.sum())
        degree[chosen] += 1
        degree[v] = len(chosen)
        parents.append(sorted(chosen.tolist()))
    dag = Dag(p, parents)
    weights = {}
    for u, v in sorted(dag.edges()):
        weights[(u, v)] = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return dag, weights


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True, help="variables, at least 2")
    parser.add_argument("--n", type=int, required=True, help="samples, at least 1")
    parser.add_argument("--m", type=int, default=1, help="parents per node, at least 1")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.p < 2 or args.n < 1 or args.m < 1:
        parser.error("need --p >= 2, --n >= 1 and --m >= 1")
    dag, weights = hub_dag(args.p, args.m, np.random.default_rng(args.seed))
    dataset = linear_sem_sample(dag, weights, args.n, noise_seed=args.seed)
    args.output.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, args.output / "data.csv")
    _write_json(args.output / "truth.json", _truth_json_dict(dag, weights))
    variance = dataset.values.var(axis=0)
    print(f"{len(dag.edges())} edges, largest degree "
          f"{int(dag.skeleton().adj.sum(axis=1).max())}, column variances "
          f"{variance.min():.3g} to {variance.max():.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
