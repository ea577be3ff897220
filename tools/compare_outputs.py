"""Check that this checkout writes the same output files as another one.

    python3 tools/compare_outputs.py PARENT_CHECKOUT [--csv PATH --indep-test T ...]

Run from anywhere; both checkouts are run from their own ``src/``.  The
inputs are perfbench's gauss-wide (seed 42, Fisher z and MI-G) and
discrete-g2 (seed 7, G² and χ²), generated once with
``perfbench/workloads.generate`` from this checkout.  On each input and
test, both checkouts run ``skeleton`` with 1 worker, ``pc`` with 1 worker,
with 2 workers, with 2 workers under the workload's ``--mem-budget``, and
with 1 worker at ``--max-level 1``, which caps the levels and the search's
set sizes, and ``pcsimple`` with 2 workers on the true DAG's hub.  On gauss-wide with
Fisher z they also run ``ida`` with 2 workers from the hub to its
lowest-index true descendant.  The oracle gets ``pc`` with 2 workers on
gauss-wide's true DAG, written as ``truth.json``; discrete-g2's DAG is left
out, as its d-separation tests take several times longer.  So every id of
``TEST_IDS`` is compared.  Each ``--csv PATH --indep-test T`` pair adds
``pc`` with 1 worker on that CSV, such as the ROADMAP's G2000 and G4000.

``skeleton.json``, ``sepsets.json``, ``cpdag.json``, ``pcsimple.json`` and
``ida.json`` must match byte for byte, and ``levelstats.json`` as its
``[level, tests, removals]`` rows (its wall times differ from run to run).
Everything is written under a temporary directory, removed at the end.  One
line per file pair goes to standard output; the exit status is 1 on any
difference or failed command, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, generate  # noqa: E402

# (workload, sample seed, tests): the seeds are perfbench's defaults
MATRIX = (("gauss-wide", 42, ("fisher-z", "mi-g")), ("discrete-g2", 7, ("g-sq", "x-sq")))
OUTPUTS = ("skeleton.json", "sepsets.json", "cpdag.json", "pcsimple.json", "ida.json",
           "levelstats.json")


def run_both(checkouts: dict[str, Path], args: list[str], outdir: Path) -> list[str]:
    """Run ``stablepc ARGS`` in each checkout; the failures, as text."""
    failed = []
    for side, checkout in checkouts.items():
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "stablepc", *args,
                               "--output", str(outdir / side)],
                              env=env, cwd=outdir, capture_output=True, text=True)
        if done.returncode:
            failed.append(f"{side} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return failed


def same_file(name: str, ours: Path, theirs: Path) -> bool:
    if name != "levelstats.json":
        return ours.read_bytes() == theirs.read_bytes()
    rows = [[[r["level"], r["tests"], r["removals"]] for r in json.loads(path.read_text())]
            for path in (ours, theirs)]
    return rows[0] == rows[1]


def compare(label: str, outdir: Path) -> int:
    """Print one line per output file of the run in ``outdir``; the
    number of differences."""
    differences = 0
    for name in OUTPUTS:
        ours, theirs = outdir / "this" / name, outdir / "parent" / name
        if not ours.exists() and not theirs.exists():
            continue
        same = ours.exists() and theirs.exists() and same_file(name, ours, theirs)
        differences += not same
        print(f"{'same' if same else 'DIFFERS':8} {label}/{name}", flush=True)
    return differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--csv", type=Path, action="append", default=[],
                        help="extra input, run with `pc` and 1 worker")
    parser.add_argument("--indep-test", action="append", default=[],
                        help="the test of the --csv of the same position")
    args = parser.parse_args()
    if len(args.csv) != len(args.indep_test):
        parser.error("give one --indep-test per --csv")
    checkouts = {"this": ROOT, "parent": args.parent.resolve()}
    if not (checkouts["parent"] / "src" / "stablepc").is_dir():
        parser.error(f"{args.parent} has no src/stablepc")

    runs: list[tuple[str, list[str]]] = []
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        for name, seed, tests in MATRIX:
            workload = WORKLOADS[name]
            inst = generate(workload, seed, work / f"{name}-{seed}")
            for test in tests:
                base = ["--input", str(inst.csv), "--indep-test", test]
                runs += [
                    (f"{name}/{test}/skeleton-1w",
                     ["skeleton", *base, "--num-workers", "1"]),
                    (f"{name}/{test}/pc-1w", ["pc", *base, "--num-workers", "1"]),
                    (f"{name}/{test}/pc-2w", ["pc", *base, "--num-workers", "2"]),
                    (f"{name}/{test}/pc-2w-mem",
                     ["pc", *base, "--num-workers", "2", "--mem-efficient",
                      "--mem-budget", str(workload.mem_budget)]),
                    (f"{name}/{test}/pc-1w-max-level-1",
                     ["pc", *base, "--num-workers", "1", "--max-level", "1"]),
                    (f"{name}/{test}/pcsimple",
                     ["pcsimple", *base, "--num-workers", "2", "--target", str(inst.hub)]),
                ]
                if (name, test) == ("gauss-wide", "fisher-z"):
                    runs.append((f"{name}/{test}/ida",
                                 ["ida", *base, "--num-workers", "2", "--cause", str(inst.hub),
                                  "--outcome", str(inst.ida_outcome)]))
            if name == "gauss-wide":
                truth = work / "truth.json"
                truth.write_text(json.dumps(inst.dag.to_json_dict()))
                runs.append((f"{name}/oracle/pc-2w",
                             ["pc", "--input", str(truth), "--indep-test", "oracle",
                              "--num-workers", "2"]))
        for csv, test in zip(args.csv, args.indep_test):
            runs.append((f"{csv}/{test}/pc-1w",
                         ["pc", "--input", str(csv.resolve()), "--indep-test", test,
                          "--num-workers", "1"]))
        for k, (label, command) in enumerate(runs):
            outdir = work / f"run-{k}"
            outdir.mkdir()
            failed = run_both(checkouts, command, outdir)
            for line in failed:
                print(f"{'FAILED':8} {label}: {line}", flush=True)
            differences += len(failed) + compare(label, outdir)
    print(f"{differences} difference(s) in {len(runs)} run(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
