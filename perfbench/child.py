"""Run one `stablepc` CLI command in a fresh interpreter and time it.

    python3 child.py SPAWNED RESULT_JSON [stablepc arguments ...]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start plus importing ``stablepc``
and ``stablepc.cli``.  ``wall_s`` runs from the CLI's entry point to its
return, i.e. from CSV read to last JSON written.

Peak RSS is read with ``getrusage``: this process, and the largest of its
waited-for children, which are the CLI's pool workers.
"""

import json
import resource
import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    result_path = sys.argv[2]
    argv = sys.argv[3:]

    import stablepc.skeleton

    # Record the LevelStats that skeleton_stable returns, for the peak
    # number of tasks in flight, which no output file holds.  The wrapper is
    # installed before the CLI module binds the name.
    peaks: list[int] = []
    engine = stablepc.skeleton.skeleton_stable

    def recording_skeleton_stable(*args, **kwargs):
        out = engine(*args, **kwargs)
        peaks.append(out[2].peak_tasks_in_flight)
        return out

    stablepc.skeleton.skeleton_stable = recording_skeleton_stable
    import stablepc.cli

    ready = time.monotonic()
    started = time.perf_counter()
    exit_code = stablepc.cli.run(argv)
    result = {"setup_s": ready - spawned, "exit_code": exit_code,
              "wall_s": time.perf_counter() - started,
              "peak_tasks_in_flight": max(peaks, default=None)}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_kb"] = own + workers
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
