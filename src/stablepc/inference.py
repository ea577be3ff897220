"""Local parent/children discovery and intervention-effect estimation.

``pc_simple`` runs the skeleton module's level loop, ``stable_levels``, on a
star: the target joined to every other variable.  Each level's candidates
are the star's remaining edges, decided like a skeleton level's edges.
``ida_effects`` enumerates the admissible parent sets of a cause in a CPDAG
and reports one regression-adjusted total effect per set.  The linear SEM
helpers generate test data and the matching population covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .citests import CiTest
from .data import Continuous, Dataset
from .graphs import Cpdag, Dag
from .skeleton import LevelExecutor, stable_levels

if TYPE_CHECKING:
    from .skeleton import SkeletonConfig

# Tolerance for accepting a pseudo-inverse solution of the normal equations;
# inconsistent systems beyond it are flagged degenerate.
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class PcSimpleResult:
    """Estimated parents-and-children of a target.

    ``p_values`` maps each member to the largest p-value observed over all
    of its conditioning sets (every one of them is at most alpha, else the
    member would have been removed).  ``peak_tasks_in_flight`` is the
    most tasks the run had in flight at once; like a wall time it describes the
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

    def to_json_dict(self) -> dict:
        return {
            "cause": self.cause,
            "outcome": self.outcome,
            "effects": [
                {"parents": list(e.parents), "effect": e.effect}
                for e in self.effects
            ],
        }


def pc_simple(suff: object, test: CiTest, target: int, alpha: float,
              cfg: SkeletonConfig) -> PcSimpleResult:
    """Estimate the parents-and-children set of one target variable.

    Candidate elimination with the stable rule, as ``stable_levels`` on a
    star: the target is adjacent to the candidate pool and each candidate
    to the target alone.  So each level tests every candidate x against the
    target given the level's subsets of the level-start pool minus x, in
    lexicographic order; removals apply at level end; and the degree filter
    stops the search once the level reaches the pool size.  The members are
    the target's final neighbours.  ``alpha`` must equal ``cfg.alpha``; the
    engine's workers test at ``alpha``, so a config with another level is
    rejected, not ignored.
    """
    if alpha != cfg.alpha:
        raise ValueError(f"alpha {alpha} differs from cfg.alpha {cfg.alpha}")
    p = getattr(suff, "p", None)
    if not isinstance(p, int):
        raise ValueError("sufficient statistic does not expose a variable count")
    if not 0 <= target < p:
        raise ValueError(f"target {target} out of range [0, {p})")
    others = np.delete(np.arange(p), target)
    star = np.zeros((p, p), dtype=bool)
    star[target, others] = star[others, target] = True
    edges = np.column_stack([np.minimum(others, target), np.maximum(others, target)])
    largest_p = np.zeros(p)
    with LevelExecutor(cfg, test) as ex:
        for _, edges, (*_, largest) in stable_levels(ex, suff, star, edges):
            candidates = edges.sum(axis=1) - target
            # NaN (no p-value) never exceeds the value so far
            seen = largest_p[candidates]
            largest_p[candidates] = np.where(largest > seen, largest, seen)
    members = np.flatnonzero(star[target]).tolist()
    p_values = dict(zip(members, largest_p[members].tolist()))
    return PcSimpleResult(target, tuple(members), p_values, ex.peak_tasks_in_flight)


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
    from scipy.linalg import cho_factor, cho_solve   # here, so only ida loads it
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
