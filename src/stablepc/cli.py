"""Command-line front end: ingestion, pipelines, serialization, benchmarks.

Subcommands: ``gen`` (synthetic dataset + ground truth), ``skeleton``,
``pc``, ``pcsimple``, ``ida``, and ``bench`` (sequential vs parallel vs
memory-efficient comparison with a result-digest equality gate).

Exit codes: 0 success, 2 input validation, 3 degenerate statistics,
4 result-equivalence violation in bench.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .citests import DegenerateConditioningError, TEST_IDS, make_citest
from .data import (
    Dataset,
    DatasetError,
    DegenerateDataError,
    discrete_suffstat,
    gaussian_suffstat,
    load_csv,
    sample_covariance,
    write_csv,
)
from .graphs import Cpdag, Dag, GraphError, SepsetMap, SkeletonGraph, dag_from_json_dict
from .inference import (
    EffectMultiset,
    ida_effects,
    linear_sem_population_cov,
    linear_sem_sample,
    pc_simple,
)
from .orientation import meek_closure, orient_v_structures
from .skeleton import LevelExecutionError, LevelStats, SkeletonConfig, skeleton_stable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

BENCH_ALGOS = ("pc", "pcsimple", "ida")


class CliInputError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set for one command invocation."""

    command: str
    input: Path | None = None
    output: Path | None = None
    indep_test: str = "fisher-z"
    alpha: float = 0.01
    num_workers: int = 2
    mem_efficient: bool = False
    mem_budget: int | str | None = None
    max_level: int | None = None
    target: int | None = None
    cause: int | None = None
    outcome: int | None = None
    seed: int = 0
    gen_p: int | None = None
    gen_density: float | None = None
    gen_n: int | None = None
    algos: tuple[str, ...] = ("pc",)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise CliInputError(f"--alpha must be in (0, 1), got {self.alpha}")
        if self.num_workers < 1:
            raise CliInputError("--num-workers must be at least 1")
        if self.indep_test not in TEST_IDS:
            raise CliInputError(
                f"--indep-test must be one of {TEST_IDS}, got '{self.indep_test}'")
        if isinstance(self.mem_budget, int) and self.mem_budget < 1:
            raise CliInputError("--mem-budget must be positive")
        if isinstance(self.mem_budget, str) and self.mem_budget != "auto":
            raise CliInputError("--mem-budget takes a byte count or 'auto'")
        if self.max_level is not None and self.max_level < 0:
            raise CliInputError(f"--max-level must be nonnegative, got {self.max_level}")
        if self.gen_n is not None and self.gen_n < 1:
            raise CliInputError(f"--n must be at least 1, got {self.gen_n}")
        if self.cause is not None and self.cause == self.outcome:
            raise CliInputError("--cause and --outcome must differ")
        for a in self.algos:
            if a not in BENCH_ALGOS:
                raise CliInputError(f"unknown bench algorithm '{a}'")

    def skeleton_config(self, *, num_workers: int | None = None,
                        mem_efficient: bool | None = None) -> SkeletonConfig:
        budget = self.mem_budget if isinstance(self.mem_budget, int) else None
        probe = self.mem_budget == "auto"
        return SkeletonConfig(
            alpha=self.alpha,
            max_level=self.max_level,
            num_workers=self.num_workers if num_workers is None else num_workers,
            mem_efficient=self.mem_efficient if mem_efficient is None else mem_efficient,
            mem_budget_bytes=budget,
            mem_probe=probe,
        )


def result_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON serialization of a result payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _outdir(cfg: RunConfig) -> Path:
    if cfg.output is None:
        raise CliInputError("--output is required")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def random_weighted_dag(p: int, density: float, rng: np.random.Generator
                        ) -> tuple[Dag, dict[tuple[int, int], float]]:
    """Random DAG from a uniform topological order with independent edge
    inclusion; weights are uniform in [0.5, 2] with random sign."""
    if p < 1:
        raise CliInputError("p must be positive")
    if not 0.0 <= density <= 1.0:
        raise CliInputError(f"density must be in [0, 1], got {density}")
    order = [int(v) for v in rng.permutation(p)]
    parents: list[list[int]] = [[] for _ in range(p)]
    for a in range(p):
        for b in range(a + 1, p):
            if rng.random() < density:
                parents[order[b]].append(order[a])
    dag = Dag(p, parents)
    weights = {}
    for u, v in sorted(dag.edges()):
        weights[(u, v)] = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return dag, weights


def _truth_json_dict(dag: Dag, weights: dict[tuple[int, int], float]) -> dict:
    return {
        "p": dag.p,
        "edges": [[u, v, "->"] for u, v in sorted(dag.edges())],
        "weights": [[u, v, weights[(u, v)]] for u, v in sorted(weights)],
    }


def _load_truth(path: Path) -> tuple[Dag, dict[tuple[int, int], float] | None]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    dag = dag_from_json_dict(data)
    weights = None
    if "weights" in data:
        weights = {(int(u), int(v)): float(w) for u, v, w in data["weights"]}
    return dag, weights


def _prepare_inputs(cfg: RunConfig) -> tuple[object, object, int, Dataset | None, Dag | None]:
    """Resolve (suff, test, p, dataset, dag) for the configured CI test and
    check the variable-index flags against p."""
    if cfg.input is None:
        raise CliInputError("--input is required")
    dataset = dag = None
    if cfg.indep_test == "oracle":
        dag, _ = _load_truth(cfg.input)
        suff, test, p = dag, make_citest("oracle", dag=dag), dag.p
    elif cfg.indep_test in ("fisher-z", "mi-g"):
        dataset = load_csv(cfg.input, "continuous")
        suff = gaussian_suffstat(dataset)
        test, p = make_citest(cfg.indep_test, gaussian=suff), suff.p
    else:
        dataset = load_csv(cfg.input, "discrete")
        suff = discrete_suffstat(dataset)
        test, p = make_citest(cfg.indep_test, discrete=suff), suff.p
    for flag, v in (("--target", cfg.target), ("--cause", cfg.cause),
                    ("--outcome", cfg.outcome)):
        if v is not None and not 0 <= v < p:
            raise CliInputError(f"{flag} {v} out of range [0, {p})")
    return suff, test, p, dataset, dag


def _learn_cpdag(suff: object, test: object, p: int, scfg: SkeletonConfig
                 ) -> tuple[SkeletonGraph, SepsetMap, LevelStats, Cpdag]:
    """The `pc` pipeline: stable skeleton, v-structures, Meek's rules."""
    graph, seps, stats = skeleton_stable(suff, test, p, scfg)
    return graph, seps, stats, meek_closure(orient_v_structures(graph, seps))


def _ida(cfg: RunConfig, cpdag: Cpdag, dataset: Dataset | None,
         dag: Dag | None) -> EffectMultiset:
    """IDA on the learned CPDAG: the sample covariance of the dataset, or the
    population covariance of the weighted truth under the oracle."""
    if dataset is not None:
        cov = sample_covariance(dataset)
    else:
        _, weights = _load_truth(cfg.input)
        if weights is None:
            raise CliInputError(
                "oracle ida needs edge weights in the truth file to form a covariance")
        cov = linear_sem_population_cov(dag, weights)
    return ida_effects(cpdag, cov, cfg.cause, cfg.outcome)


def _pc_payload(graph: SkeletonGraph, seps: SepsetMap, cpdag: Cpdag) -> dict:
    return {"skeleton": graph.to_json_dict(), "sepsets": seps.to_json_dict(),
            "cpdag": cpdag.to_json_dict()}


def cmd_gen(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    if cfg.gen_p is None or cfg.gen_density is None or cfg.gen_n is None:
        raise CliInputError("gen requires --p, --density and --n")
    rng = np.random.default_rng(cfg.seed)
    dag, weights = random_weighted_dag(cfg.gen_p, cfg.gen_density, rng)
    dataset = linear_sem_sample(dag, weights, cfg.gen_n, noise_seed=cfg.seed)
    write_csv(dataset, out / "data.csv")
    _write_json(out / "truth.json", _truth_json_dict(dag, weights))
    return EXIT_OK


def cmd_skeleton(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    suff, test, p, _, _ = _prepare_inputs(cfg)
    graph, seps, stats = skeleton_stable(suff, test, p, cfg.skeleton_config())
    _write_json(out / "skeleton.json", graph.to_json_dict())
    _write_json(out / "sepsets.json", seps.to_json_dict())
    _write_json(out / "levelstats.json", stats.to_json_list())
    return EXIT_OK


def cmd_pc(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    suff, test, p, _, _ = _prepare_inputs(cfg)
    graph, seps, stats, cpdag = _learn_cpdag(suff, test, p, cfg.skeleton_config())
    _write_json(out / "skeleton.json", graph.to_json_dict())
    _write_json(out / "sepsets.json", seps.to_json_dict())
    _write_json(out / "cpdag.json", cpdag.to_json_dict())
    _write_json(out / "levelstats.json", stats.to_json_list())
    return EXIT_OK


def cmd_pcsimple(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    if cfg.target is None:
        raise CliInputError("pcsimple requires --target")
    suff, test, p, _, _ = _prepare_inputs(cfg)
    result = pc_simple(suff, test, cfg.target, cfg.alpha, cfg.skeleton_config())
    _write_json(out / "pcsimple.json", result.to_json_dict())
    return EXIT_OK


def cmd_ida(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    if cfg.cause is None or cfg.outcome is None:
        raise CliInputError("ida requires --cause and --outcome")
    suff, test, p, dataset, dag = _prepare_inputs(cfg)
    *_, cpdag = _learn_cpdag(suff, test, p, cfg.skeleton_config())
    _write_json(out / "ida.json", _ida(cfg, cpdag, dataset, dag).to_json_dict())
    return EXIT_OK


def _bench_dataset(cfg: RunConfig) -> RunConfig:
    """Materialize the generator spec into an input CSV when no input given."""
    if cfg.input is not None:
        return cfg
    if cfg.gen_p is None or cfg.gen_density is None or cfg.gen_n is None:
        raise CliInputError("bench needs --input or --gen-p/--gen-density/--gen-n")
    out = _outdir(cfg)
    rng = np.random.default_rng(cfg.seed)
    dag, weights = random_weighted_dag(cfg.gen_p, cfg.gen_density, rng)
    dataset = linear_sem_sample(dag, weights, cfg.gen_n, noise_seed=cfg.seed)
    path = out / "bench_data.csv"
    write_csv(dataset, path)
    return dataclasses.replace(cfg, input=path)


def _run_bench_algo(cfg: RunConfig, algo: str, workers: int,
                    mem_efficient: bool) -> tuple[float, int, str]:
    suff, test, p, dataset, dag = _prepare_inputs(cfg)
    scfg = cfg.skeleton_config(num_workers=workers, mem_efficient=mem_efficient)
    started = time.perf_counter()
    if algo == "pcsimple":
        result = pc_simple(suff, test, cfg.target, cfg.alpha, scfg)
        peak, payload = result.peak_tasks_in_flight, result.to_json_dict()
    else:
        graph, seps, stats, cpdag = _learn_cpdag(suff, test, p, scfg)
        peak = stats.peak_tasks_in_flight
        if algo == "pc":
            payload = _pc_payload(graph, seps, cpdag)
        else:
            payload = _ida(cfg, cpdag, dataset, dag).to_json_dict()
    wall_ms = (time.perf_counter() - started) * 1000.0
    return wall_ms, peak, result_digest(payload)


def cmd_bench(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    cfg = _bench_dataset(cfg)
    variants = (
        ("sequential", 1, False),
        ("parallel", cfg.num_workers, False),
        ("parallel-mem", cfg.num_workers, True),
    )
    rows = []
    mismatch = False
    for algo in cfg.algos:
        digests = []
        for name, workers, mem in variants:
            wall_ms, peak, digest = _run_bench_algo(cfg, algo, workers, mem)
            digests.append(digest)
            rows.append({
                "algorithm": algo,
                "variant": name,
                "workers": workers,
                "wall_ms": round(wall_ms, 3),
                "peak_tasks_in_flight": peak,
                "result_digest": digest,
            })
        if len(set(digests)) != 1:
            mismatch = True
            print(f"bench: digest mismatch across variants of '{algo}'",
                  file=sys.stderr)
    header = ["algorithm", "variant", "workers", "wall_ms",
              "peak_tasks_in_flight", "result_digest"]
    tsv = "\t".join(header) + "\n"
    for row in rows:
        tsv += "\t".join(str(row[h]) for h in header) + "\n"
    (out / "bench.tsv").write_text(tsv, encoding="utf-8")
    _write_json(out / "bench.json", rows)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepc",
        description="Constraint-based causal discovery with level-parallel CI tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            sp.add_argument("--input", type=Path, required=False,
                            help="CSV dataset (truth JSON for --indep-test oracle)")
        sp.add_argument("--output", type=Path, required=True,
                        help="output directory")
        sp.add_argument("--indep-test", default="fisher-z", choices=TEST_IDS)
        sp.add_argument("--alpha", type=float, default=0.01)
        sp.add_argument("--num-workers", type=int, default=2)
        sp.add_argument("--mem-efficient", action="store_true")
        sp.add_argument("--mem-budget", default=None,
                        help="batching byte budget, or 'auto' to probe free memory")
        sp.add_argument("--max-level", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    sp.add_argument("--output", type=Path, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("skeleton", help="learn the undirected skeleton")
    common(sp)

    sp = sub.add_parser("pc", help="full pipeline: skeleton + orientation")
    common(sp)

    sp = sub.add_parser("pcsimple", help="parents and children of one target")
    common(sp)
    sp.add_argument("--target", type=int, required=True)

    sp = sub.add_parser("ida", help="possible causal effects of cause on outcome")
    common(sp)
    sp.add_argument("--cause", type=int, required=True)
    sp.add_argument("--outcome", type=int, required=True)

    sp = sub.add_parser("bench", help="sequential vs parallel comparison")
    common(sp)
    sp.add_argument("--algos", default="pc",
                    help="comma-separated subset of pc,pcsimple,ida")
    sp.add_argument("--gen-p", type=int, default=None)
    sp.add_argument("--gen-density", type=float, default=None)
    sp.add_argument("--gen-n", type=int, default=None)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--cause", type=int, default=0)
    sp.add_argument("--outcome", type=int, default=1)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = getattr(args, "mem_budget", None)
    if budget is not None and budget != "auto":
        try:
            budget = int(budget)
        except ValueError:
            raise CliInputError(
                f"--mem-budget takes a byte count or 'auto', got '{budget}'") from None
    algos = getattr(args, "algos", "pc")
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        indep_test=getattr(args, "indep_test", "fisher-z"),
        alpha=getattr(args, "alpha", 0.01),
        num_workers=getattr(args, "num_workers", 2),
        mem_efficient=getattr(args, "mem_efficient", False),
        mem_budget=budget,
        max_level=getattr(args, "max_level", None),
        target=getattr(args, "target", None),
        cause=getattr(args, "cause", None),
        outcome=getattr(args, "outcome", None),
        seed=getattr(args, "seed", 0),
        gen_p=getattr(args, "gen_p", None) or getattr(args, "p", None),
        gen_density=getattr(args, "gen_density", None) or getattr(args, "density", None),
        gen_n=getattr(args, "gen_n", None) or getattr(args, "n", None),
        algos=tuple(a.strip() for a in algos.split(",") if a.strip()),
    )


COMMANDS = {
    "gen": cmd_gen,
    "skeleton": cmd_skeleton,
    "pc": cmd_pc,
    "pcsimple": cmd_pcsimple,
    "ida": cmd_ida,
    "bench": cmd_bench,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return COMMANDS[cfg.command](cfg)
    except (CliInputError, DatasetError, GraphError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        if isinstance(exc, DegenerateDataError):
            print(f"stablepc: degenerate statistics: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"stablepc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateConditioningError, LevelExecutionError,
            np.linalg.LinAlgError) as exc:
        print(f"stablepc: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())
