"""Local parent/children discovery and intervention-effect estimation.

``pc_simple`` runs the level-synchronized candidate elimination around one
target variable as a client of the skeleton module's level engine: each
level's candidates are task rows, decided by ``decide_candidates`` against
the level-start candidate pool.
``ida_effects`` enumerates the admissible parent sets of a cause in a CPDAG
and reports one regression-adjusted total effect per set.  The linear SEM
helpers generate test data and the matching population covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .citests import CiTest, DegenerateConditioningError
from .data import Continuous, Dataset
from .graphs import Cpdag, Dag
from .skeleton import LevelExecutor, SkeletonConfig, estimate_task_cost, run_level

# Tolerance for accepting a pseudo-inverse solution of the normal equations;
# inconsistent systems beyond it are flagged degenerate.
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class PcSimpleResult:
    """Estimated parents-and-children of a target.

    ``p_values`` maps each member to the largest p-value observed over all
    of its conditioning sets (every one of them is at most alpha, else the
    member would have been removed).  ``peak_tasks_in_flight`` is the
    largest batch the run dispatched; like a wall time it describes the
    schedule, so equality and the JSON form leave it out.
    """

    target: int
    members: tuple[int, ...]
    p_values: Mapping[int, float]
    peak_tasks_in_flight: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "members": list(self.members),
            "p_values": {str(m): self.p_values[m] for m in self.members},
        }


@dataclass(frozen=True)
class IdaEffect:
    """One adjustment-set entry; effect is None when the regression system
    was singular."""

    parents: tuple[int, ...]
    effect: float | None


@dataclass(frozen=True)
class EffectMultiset:
    cause: int
    outcome: int
    effects: tuple[IdaEffect, ...]

    def effect_values(self) -> list[float]:
        return [e.effect for e in self.effects if e.effect is not None]

    def to_json_dict(self) -> dict:
        return {
            "cause": self.cause,
            "outcome": self.outcome,
            "effects": [
                {"parents": list(e.parents), "effect": e.effect}
                for e in self.effects
            ],
        }


def decide_candidates(shared: tuple[int, int, tuple[int, ...]], rows: np.ndarray,
                      test: CiTest, alpha: float) -> list[tuple[bool, float, int]]:
    """Test each candidate of a block against the target for every
    same-level subset of the level-start pool; the first acceptance marks it
    for removal.

    ``shared`` is (level, target, pool) and each row is a candidate (x,).
    Returns per candidate whether x goes, the largest p-value seen (the
    accepting one when it goes) and the number of tests run.
    """
    level, target, pool = shared
    return [_decide_candidate(level, target, pool, x, test, alpha)
            for (x,) in rows.tolist()]


def _decide_candidate(level: int, target: int, pool: tuple[int, ...], x: int,
                      test: CiTest, alpha: float) -> tuple[bool, float, int]:
    others = tuple(v for v in pool if v != x)
    largest = 0.0
    tests = 0
    for sub in combinations(others, level):
        tests += 1
        try:
            outcome = test(x, target, sub)
        except DegenerateConditioningError:
            continue
        if outcome.p_value > largest:
            largest = outcome.p_value
        if outcome.p_value > alpha:
            return True, outcome.p_value, tests
    return False, largest, tests


def pc_simple(suff: object, test: CiTest, target: int, alpha: float,
              cfg: SkeletonConfig) -> PcSimpleResult:
    """Estimate the parents-and-children set of one target variable.

    Candidate elimination with the stable rule: each level tests every
    remaining candidate against the target given all same-level subsets of
    the level-start candidate pool (in parallel over candidates), and
    removals apply at level end.  Stops once the level reaches the pool
    size.  ``alpha`` must equal ``cfg.alpha``; the engine's workers test at
    ``alpha``, so a config with another level is rejected, not ignored.
    """
    if alpha != cfg.alpha:
        raise ValueError(f"alpha {alpha} differs from cfg.alpha {cfg.alpha}")
    p = getattr(suff, "p", None)
    if not isinstance(p, int):
        raise ValueError("sufficient statistic does not expose a variable count")
    if not 0 <= target < p:
        raise ValueError(f"target {target} out of range [0, {p})")
    candidates = [v for v in range(p) if v != target]
    largest_p: dict[int, float] = {v: 0.0 for v in candidates}
    with LevelExecutor(cfg.num_workers, test, alpha) as ex:
        level = 0
        while level < len(candidates) and (cfg.max_level is None or level <= cfg.max_level):
            rows = np.array(candidates, dtype=np.int64).reshape(-1, 1)
            results = run_level(ex, decide_candidates, (level, target, tuple(candidates)),
                                rows, cfg, estimate_task_cost(level, suff))
            keep = []
            for x, (removed, p_value, _) in zip(candidates, results):
                largest_p[x] = max(largest_p[x], p_value)
                if not removed:
                    keep.append(x)
            candidates = keep
            level += 1
    members = tuple(candidates)
    return PcSimpleResult(target, members, {m: largest_p[m] for m in members},
                          ex.peak_tasks_in_flight)


def admissible_parent_sets(g: Cpdag, x: int) -> list[tuple[int, ...]]:
    """Candidate parent sets of x: certain parents plus a sibling subset.

    A subset of the undirected neighbors is admissible when orienting it
    into x creates no new collider at x, i.e. every chosen sibling is
    adjacent to every other member of the candidate parent set.  Ordered by
    sibling-subset size then lexicographically; the certain parents alone
    (empty subset) always come first.
    """
    if not 0 <= x < g.p:
        raise ValueError(f"variable {x} out of range [0, {g.p})")
    certain = sorted(g.parents(x))
    siblings = sorted(g.undirected_neighbors(x))
    admissible = []
    for size in range(len(siblings) + 1):
        for chosen in combinations(siblings, size):
            candidate = tuple(sorted(certain + list(chosen)))
            ok = True
            for u in chosen:
                for v in candidate:
                    if v != u and not g.has_edge(u, v):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                admissible.append(candidate)
    return admissible


def _solve_normal_equations(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a @ beta = b for a symmetric PSD a; None when degenerate.

    Rank-deficient systems are degenerate (the coefficient is not
    identified); the pseudo-inverse path only rescues full-rank matrices the
    Cholesky factorization rejected for numerical reasons.
    """
    try:
        beta = cho_solve(cho_factor(a), b)
    except np.linalg.LinAlgError:
        if np.linalg.matrix_rank(a, hermitian=True) < a.shape[0]:
            return None
        beta = np.linalg.pinv(a, hermitian=True) @ b
    if not np.isfinite(beta).all():
        return None
    tolerance = _RESIDUAL_RTOL * max(1.0, float(np.abs(b).max(initial=0.0)))
    if float(np.abs(a @ beta - b).max(initial=0.0)) > tolerance:
        return None
    return beta


def ida_effects(g: Cpdag, cov: np.ndarray, x: int, y: int) -> EffectMultiset:
    """Possible total causal effects of x on y, one per admissible parent set.

    Each effect is the coefficient of x when y is regressed on x plus the
    parent set, solved from the covariance matrix.  A parent set containing
    y gets effect 0 by convention; a singular regression is flagged
    degenerate rather than failing the whole query.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape != (g.p, g.p):
        raise ValueError(f"covariance must be {g.p} x {g.p}")
    if x == y:
        raise ValueError("cause and outcome must differ")
    if not 0 <= y < g.p:
        raise ValueError(f"variable {y} out of range [0, {g.p})")
    entries = []
    for parents in admissible_parent_sets(g, x):
        if y in parents:
            entries.append(IdaEffect(parents, 0.0))
            continue
        predictors = [x, *parents]
        a = cov[np.ix_(predictors, predictors)]
        b = cov[predictors, y]
        beta = _solve_normal_equations(a, b)
        entries.append(IdaEffect(parents, None if beta is None else float(beta[0])))
    return EffectMultiset(x, y, tuple(entries))


def _weight_matrix(dag: Dag, weights: Mapping[tuple[int, int], float]) -> np.ndarray:
    edges = set(dag.edges())
    given = set(weights)
    if given != edges:
        missing = sorted(edges - given)
        extra = sorted(given - edges)
        raise ValueError(
            f"weights must cover exactly the DAG's edges; missing {missing}, "
            f"unexpected {extra}"
        )
    w = np.zeros((dag.p, dag.p))
    for (u, v), weight in weights.items():
        w[u, v] = float(weight)
    return w


def linear_sem_population_cov(dag: Dag, weights: Mapping[tuple[int, int], float]) -> np.ndarray:
    """Population covariance of the linear SEM with unit-variance noise:
    (I - W)^-T (I - W)^-1 for the weighted adjacency W."""
    w = _weight_matrix(dag, weights)
    m = np.linalg.inv(np.eye(dag.p) - w)
    cov = m.T @ m
    return (cov + cov.T) / 2.0


def linear_sem_sample(dag: Dag, weights: Mapping[tuple[int, int], float],
                      n: int, noise_seed: int) -> Dataset:
    """Draw n samples from the linear SEM with standard normal noise.

    Noise is drawn as one seeded block indexed by variable, then values are
    filled in topological order, so a fixed seed reproduces the dataset
    bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    w = _weight_matrix(dag, weights)
    rng = np.random.default_rng(noise_seed)
    values = rng.standard_normal((n, dag.p))
    order = dag.topological_order()
    assert order is not None
    for v in order:
        for u in dag.parents[v]:
            values[:, v] += w[u, v] * values[:, u]
    names = tuple(f"x{v}" for v in range(dag.p))
    return Dataset(values, names, tuple(Continuous() for _ in range(dag.p)))
