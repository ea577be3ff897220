"""Command-line front end: ingestion, pipelines, serialization, benchmarks.

Subcommands: ``gen`` (synthetic dataset + ground truth), ``skeleton``,
``pc``, ``pcsimple``, ``ida``, and ``bench`` (sequential vs parallel vs
memory-efficient comparison with a result-digest equality gate).

``skeleton``, ``pc``, ``pcsimple`` and ``ida`` are one command: each runs
``run_pipeline`` on the ingested input and writes the files it returns.
``bench`` times the same call per variant and digests those files, all but
the wall-clock ``levelstats.json``: ``result_digest`` hashes the text that
``_write_json`` writes, so a digest stands for the files' exact bytes.  Each
flag's argparse ``dest`` is the name of its ``RunConfig`` field, and a flag
left out keeps that field's default.

Exit codes: 0 success, 2 input validation or a file that cannot be read or
written, 3 degenerate statistics, 4 result-equivalence violation in bench.
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
from typing import Iterable

import numpy as np

from .citests import DegenerateConditioningError, TEST_IDS, make_citest
from .data import (
    Dataset,
    DatasetError,
    DegenerateDataError,
    discrete_suffstat,
    gaussian_suffstat,
    load_csv,
    read_text,
    sample_covariance,
    write_csv,
)
from .graphs import Dag, GraphError, SepsetMap, dag_from_json_dict
from .inference import ida_effects, linear_sem_population_cov, linear_sem_sample, pc_simple
from .orientation import meek_closure, orient_v_structures
from .skeleton import (
    DEFAULT_MEM_BUDGET_BYTES,
    LevelExecutionError,
    SkeletonConfig,
    probe_free_memory,
    skeleton_stable,
)

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
        if self.indep_test not in TEST_IDS:
            raise CliInputError(
                f"--indep-test must be one of {TEST_IDS}, got '{self.indep_test}'")
        if isinstance(self.mem_budget, str) and self.mem_budget != "auto":
            raise CliInputError(
                f"--mem-budget takes a byte count or 'auto', got '{self.mem_budget}'")
        if self.gen_n is not None and self.gen_n < 1:
            raise CliInputError(f"--n must be at least 1, got {self.gen_n}")
        if self.seed < 0:
            raise CliInputError(f"--seed must be nonnegative, got {self.seed}")
        if self.cause is not None and self.cause == self.outcome:
            raise CliInputError("--cause and --outcome must differ")
        if not self.algos:
            raise CliInputError("--algos names no algorithm")
        for a in self.algos:
            if a not in BENCH_ALGOS:
                raise CliInputError(f"unknown bench algorithm '{a}'")
        runs = self.algos if self.command == "bench" else (self.command,)
        if "pcsimple" in runs and self.target is None:
            raise CliInputError("pcsimple requires --target")
        if "ida" in runs and (self.cause is None or self.outcome is None):
            raise CliInputError("ida requires --cause and --outcome")
        try:
            # an 'auto' budget is always valid, so validation skips its probe
            self.skeleton_config(mem_efficient=self.mem_budget != "auto")
        except ValueError as exc:
            raise CliInputError(str(exc)) from None

    def skeleton_config(self, *, num_workers: int | None = None,
                        mem_efficient: bool | None = None) -> SkeletonConfig:
        """The engine's config for one run.

        ``--mem-efficient`` or a given ``--mem-budget`` sets a byte budget,
        unless ``mem_efficient`` says otherwise.  The byte budget is
        ``--mem-budget``, or for ``auto`` the free memory probed here, once;
        without either (or when the probe finds nothing) it is
        ``DEFAULT_MEM_BUDGET_BYTES``.
        """
        if mem_efficient is None:
            mem_efficient = self.mem_efficient or self.mem_budget is not None
        if not mem_efficient:
            budget = None
        elif self.mem_budget == "auto":
            budget = probe_free_memory() or DEFAULT_MEM_BUDGET_BYTES
        else:
            budget = DEFAULT_MEM_BUDGET_BYTES if self.mem_budget is None else self.mem_budget
        return SkeletonConfig(
            alpha=self.alpha,
            max_level=self.max_level,
            num_workers=self.num_workers if num_workers is None else num_workers,
            mem_budget_bytes=budget,
        )


def _json_text(payload: object) -> Iterable[str]:
    """The text of an output file: sorted keys, two-space indent, final
    newline.  A ``SepsetMap`` gives that same text from its arrays, in
    bounded pieces."""
    if isinstance(payload, SepsetMap):
        return payload.json_chunks()
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n",)


def result_digest(files: dict[str, object]) -> str:
    """SHA-256 of output files as written: each file's name, a NUL byte and
    its text, the files in name order."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8") + b"\0")
        for piece in _json_text(files[name]):
            digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def _write_json(path: Path, payload: object) -> None:
    """Write the payload's text, the bytes ``result_digest`` hashes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_text(payload))


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
    return {**dag.to_json_dict(),
            "weights": [[u, v, weights[(u, v)]] for u, v in sorted(weights)]}


def _load_truth(path: Path) -> tuple[Dag, dict[tuple[int, int], float] | None]:
    """The truth DAG of a JSON file and its edge weights, if it has them;
    GraphError naming the file when the JSON does not describe them."""
    text = read_text(path)
    try:
        data = json.loads(text)
        dag = dag_from_json_dict(data)
        weights = data.get("weights")
        if weights is not None:
            for row in weights:
                u, v, w = row
                if not (type(u) is type(v) is int and type(w) in (int, float)):
                    raise ValueError(f"weight row {row!r} is not [u, v, weight]")
            weights = {(u, v): float(w) for u, v, w in weights}
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{path}: not a truth JSON ({exc})") from None
    return dag, weights


def _generate(cfg: RunConfig, csv_path: Path) -> tuple[Dag, dict[tuple[int, int], float]]:
    """Sample the configured random weighted DAG and write its dataset."""
    if cfg.gen_p is None or cfg.gen_density is None or cfg.gen_n is None:
        raise CliInputError(
            f"{cfg.command} needs --input or a generator spec (p, density and n)")
    rng = np.random.default_rng(cfg.seed)
    dag, weights = random_weighted_dag(cfg.gen_p, cfg.gen_density, rng)
    write_csv(linear_sem_sample(dag, weights, cfg.gen_n, noise_seed=cfg.seed), csv_path)
    return dag, weights


Inputs = tuple[object, object, int, Dataset | None, dict[tuple[int, int], float] | None]


def _prepare_inputs(cfg: RunConfig) -> Inputs:
    """Resolve (suff, test, p, dataset, weights) for the configured CI test
    and check the variable-index flags against p.  Under the oracle, suff is
    the truth DAG, dataset is None and weights are its edge weights, if the
    file has them."""
    if cfg.input is None:
        raise CliInputError("--input is required")
    dataset = weights = None
    if cfg.indep_test == "oracle":
        suff, weights = _load_truth(cfg.input)
        if suff.p < 2:
            raise CliInputError(f"{cfg.input}: need at least two variables, got {suff.p}")
        test, p = make_citest("oracle", dag=suff), suff.p
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
    return suff, test, p, dataset, weights


def run_pipeline(cfg: RunConfig, algo: str, inputs: Inputs, scfg: SkeletonConfig
                 ) -> tuple[dict[str, object], int]:
    """Run one of ``skeleton``, ``pc``, ``pcsimple`` or ``ida`` on prepared
    inputs with the engine config ``scfg``.

    Returns the output files, each name mapped to its JSON payload (for
    ``sepsets.json`` the ``SepsetMap`` itself), and the peak number of tasks
    in flight.  ``levelstats.json`` holds wall-clock readings; every other
    payload depends only on the inputs and the flags.
    IDA uses the sample covariance of the dataset, or under the oracle the
    population covariance of the weighted truth.
    """
    suff, test, p, dataset, weights = inputs
    if algo == "pcsimple":
        result = pc_simple(suff, test, cfg.target, scfg.alpha, scfg)
        return {"pcsimple.json": result.to_json_dict()}, result.peak_tasks_in_flight
    graph, seps, stats = skeleton_stable(suff, test, p, scfg)
    peak = stats.peak_tasks_in_flight
    cpdag = None if algo == "skeleton" else meek_closure(orient_v_structures(graph, seps))
    if algo == "ida":
        if dataset is not None:
            cov = sample_covariance(dataset)
        elif weights is not None:
            try:
                cov = linear_sem_population_cov(suff, weights)
            except ValueError as exc:
                raise CliInputError(f"{cfg.input}: {exc}") from None
        else:
            raise CliInputError(
                "oracle ida needs edge weights in the truth file to form a covariance")
        effects = ida_effects(cpdag, cov, cfg.cause, cfg.outcome)
        return {"ida.json": effects.to_json_dict()}, peak
    files = {"skeleton.json": graph.to_json_dict(), "sepsets.json": seps,
             "levelstats.json": stats.to_json_list()}
    if cpdag is not None:
        files["cpdag.json"] = cpdag.to_json_dict()
    return files, peak


def cmd_gen(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    dag, weights = _generate(cfg, out / "data.csv")
    _write_json(out / "truth.json", _truth_json_dict(dag, weights))
    return EXIT_OK


def cmd_pipeline(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    files, _ = run_pipeline(cfg, cfg.command, _prepare_inputs(cfg), cfg.skeleton_config())
    for name, payload in files.items():
        _write_json(out / name, payload)
    return EXIT_OK


def _run_bench_algo(cfg: RunConfig, algo: str, inputs: Inputs, workers: int,
                    mem_efficient: bool) -> tuple[float, int, str]:
    scfg = cfg.skeleton_config(num_workers=workers, mem_efficient=mem_efficient)
    started = time.perf_counter()
    files, peak = run_pipeline(cfg, algo, inputs, scfg)
    wall_ms = (time.perf_counter() - started) * 1000.0
    files.pop("levelstats.json", None)
    return wall_ms, peak, result_digest(files)


def cmd_bench(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    if cfg.input is None:
        _generate(cfg, out / "bench_data.csv")
        cfg = dataclasses.replace(cfg, input=out / "bench_data.csv")
    inputs = _prepare_inputs(cfg)
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
            wall_ms, peak, digest = _run_bench_algo(cfg, algo, inputs, workers, mem)
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


def _algo_list(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _byte_count_or_text(text: str) -> int | str:
    # Text that is not a byte count is left for RunConfig to accept ('auto')
    # or reject with exit code 2.
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepc",
        description="Constraint-based causal discovery with level-parallel CI tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        # A flag left out stays out of the namespace, so RunConfig's default
        # is the only one.
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("--output", type=Path, required=True, help="output directory")
        return sp

    def pipeline(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = command(name, help_text)
        sp.add_argument("--input", type=Path,
                        help="CSV dataset (truth JSON for --indep-test oracle)")
        sp.add_argument("--indep-test", choices=TEST_IDS)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--num-workers", type=int)
        sp.add_argument("--mem-efficient", action="store_true")
        sp.add_argument("--mem-budget", type=_byte_count_or_text,
                        help="slicing byte budget, or 'auto' to probe free memory")
        sp.add_argument("--max-level", type=int)
        return sp

    sp = command("gen", "generate a synthetic dataset with ground truth")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--p", dest="gen_p", metavar="P", type=int, required=True)
    sp.add_argument("--density", dest="gen_density", metavar="DENSITY", type=float,
                    required=True)
    sp.add_argument("--n", dest="gen_n", metavar="N", type=int, required=True)

    pipeline("skeleton", "learn the undirected skeleton")
    pipeline("pc", "full pipeline: skeleton + orientation")

    sp = pipeline("pcsimple", "parents and children of one target")
    sp.add_argument("--target", type=int, required=True)

    sp = pipeline("ida", "possible causal effects of cause on outcome")
    sp.add_argument("--cause", type=int, required=True)
    sp.add_argument("--outcome", type=int, required=True)

    sp = pipeline("bench", "sequential vs parallel comparison")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--algos", type=_algo_list,
                    help="comma-separated subset of pc,pcsimple,ida")
    sp.add_argument("--gen-p", type=int)
    sp.add_argument("--gen-density", type=float)
    sp.add_argument("--gen-n", type=int)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--cause", type=int, default=0)
    sp.add_argument("--outcome", type=int, default=1)
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "skeleton": cmd_pipeline,
    "pc": cmd_pipeline,
    "pcsimple": cmd_pipeline,
    "ida": cmd_pipeline,
    "bench": cmd_bench,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        return COMMANDS[cfg.command](cfg)
    except (CliInputError, DatasetError, GraphError, OSError) as exc:
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
