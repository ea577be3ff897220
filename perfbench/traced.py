"""Traced 1-worker run: the `pc` pipeline rebuilt from public calls.

    python3 traced.py SPEC_JSON RESULT_JSON

SPEC_JSON names the CSV, the CI test, alpha, the output directory, the
PC-simple target and the IDA cause and outcome.  Every public layer call
gets a span (name, start, end, parent); the CI callable is wrapped in a
counter that times each call.  Spans and counters stay in memory and are
written to RESULT_JSON when the run ends.  The pipeline writes the same four
files as `stablepc pc`, so its results can be checked against the CLI's.
With ``"full": false`` only ingestion and ``pc_simple`` run, as the
reference for the ``pcsimple`` command.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from stablepc import (
    DegenerateConditioningError, SkeletonConfig, discrete_suffstat,
    gaussian_suffstat, ida_effects, load_csv, make_citest, meek_closure,
    orient_v_structures, pc_simple, sample_covariance, skeleton_stable,
)


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class CountingTest:
    """CI callable wrapper counting calls, busy time, degenerate raises and
    accepts (p > alpha).  Used only in-process, with one worker."""

    def __init__(self, test, alpha: float) -> None:
        self._test = test
        self._alpha = alpha
        self.calls = 0
        self.busy_s = 0.0
        self.degenerate = 0
        self.accepts = 0

    def __call__(self, i, j, s):
        self.calls += 1
        started = time.perf_counter()
        try:
            outcome = self._test(i, j, s)
        except DegenerateConditioningError:
            self.degenerate += 1
            raise
        finally:
            self.busy_s += time.perf_counter() - started
        if outcome.p_value > self._alpha:
            self.accepts += 1
        return outcome

    def counters(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy_s,
                "degenerate": self.degenerate, "accepts": self.accepts}


def _write_json(path: Path, payload: object) -> int:
    # The CLI's serialization: sorted keys, two-space indent, final newline.
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def run(spec: dict) -> dict:
    out = Path(spec["output"])
    out.mkdir(parents=True, exist_ok=True)
    alpha = spec["alpha"]
    discrete = spec["indep_test"] in ("g-sq", "x-sq")
    cfg = SkeletonConfig(alpha=alpha, num_workers=1)
    tracer = Tracer()

    with tracer.span("pipeline"):
        with tracer.span("data.load_csv"):
            dataset = load_csv(spec["csv"], "discrete" if discrete else "continuous")
        with tracer.span("data.suffstat"):
            if discrete:
                suff = discrete_suffstat(dataset)
                base = make_citest(spec["indep_test"], discrete=suff)
            else:
                suff = gaussian_suffstat(dataset)
                base = make_citest(spec["indep_test"], gaussian=suff)
        if spec["full"]:
            test = CountingTest(base, alpha)
            with tracer.span("skeleton.skeleton_stable"):
                graph, seps, stats = skeleton_stable(suff, test, suff.p, cfg)
            with tracer.span("orientation.orient_v_structures"):
                vstruct = orient_v_structures(graph, seps)
            with tracer.span("orientation.meek_closure"):
                cpdag = meek_closure(vstruct)
            with tracer.span("cli.serialize"):
                output_bytes = sum((
                    _write_json(out / "skeleton.json", graph.to_json_dict()),
                    _write_json(out / "sepsets.json", seps.to_json_dict()),
                    _write_json(out / "cpdag.json", cpdag.to_json_dict()),
                    _write_json(out / "levelstats.json", stats.to_json_list()),
                ))

    simple_test = CountingTest(base, alpha)
    with tracer.span("inference.pc_simple"):
        local = pc_simple(suff, simple_test, spec["target"], alpha, cfg)
    _write_json(out / "pcsimple.json", local.to_json_dict())
    result = {"pcsimple_tests": simple_test.calls}
    if not spec["full"]:
        result["spans"] = tracer.spans
        return result

    with tracer.span("data.sample_covariance"):
        cov = sample_covariance(dataset)
    with tracer.span("inference.ida_effects"):
        effects = ida_effects(cpdag, cov, spec["cause"], spec["outcome"])

    return result | {
        "spans": tracer.spans,
        "citests": test.counters(),
        "levels": stats.to_json_list(),
        "vstruct_arrows": len(vstruct.directed_edges()),
        "cpdag_arrows": len(cpdag.directed_edges()),
        "undirected_edges": len(cpdag.undirected_edges()),
        "ida_sets": len(effects.effects),
        "output_bytes": output_bytes,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
