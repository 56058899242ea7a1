"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paper_measured --seed 11 --seconds 35 --trace 0

Each workload measures a fixed amount of work, sized to take about
``--seconds`` on the reference machine (README.md); ``--seconds`` is
recorded, not used to stop early, so every run takes the same samples
and runs the same checks however fast the machine is.  Reported times
are wall times scaled by the machine-speed probe of ``speed.py``; the
unscaled medians are printed beside them.

Every metric is printed on its own line with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Scratch files,
the native-kernel cache and the run record (environment fingerprint,
metrics and, for a traced run, the span forest) go under
``.bench_build/perfbench`` in the checkout.  Exits 2 without a result when
the checkout holds no program sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: BLAS threads when the caller sets none.  One: the reference machine's
#: two cores are a share of a busy host, and a BLAS call spread over both
#: waits for the slower one, which made timings spread wider across runs.
BLAS_THREADS = 1


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout; cap BLAS threads."""
    for sub in ("tmp", "native", "runs"):
        (SCRATCH / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH / "tmp")
    tempfile.tempdir = str(SCRATCH / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(SCRATCH / "native")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(BLAS_THREADS))
    sys.path.insert(1, str(ROOT / "src"))


def _child_pids() -> list:
    """Pids of this process's children, zombies included (``/proc``)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry))
    return children


def _stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    A shared-memory segment (the parallel probe's ``workers=2`` pool)
    starts multiprocessing's resource tracker, which would otherwise
    outlive this process; it is told to finish and is reaped.  Any other
    child still running is killed and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    _prepare_environment()

    import envinfo

    steal_start = envinfo.steal_ticks()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    started = time.perf_counter()
    outcome = workloads.run_workload(
        args.workload, args.seed, bool(args.trace), SCRATCH / "tmp"
    )
    wall_s = time.perf_counter() - started
    env = envinfo.fingerprint(ROOT, steal_start=steal_start)

    catalogue = workloads.PER_LAYER_METRICS if args.trace else workloads.E2E_METRICS
    checks = outcome.checks
    for name in catalogue:
        checks.check(f"metric {name} measured", name in outcome.metrics)
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in catalogue.items()
        if name in outcome.metrics
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "env": env,
        "samples": outcome.samples,
        "failures": checks.failures,
        "metrics": metrics,
        "times": outcome.times,
        "spans": outcome.trace,
    }
    record_path = SCRATCH / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({wall_s:.1f} s wall)")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(outcome.samples, sort_keys=True))
    for name, doc in metrics.items():
        print(f"  {name:34s} {doc['value']!r} {doc['unit']}")
    walls = {
        name[: -len("_wall")]: median(values)
        for name, values in (outcome.times or {}).items()
        if name.endswith("_wall") and values
    }
    if walls:
        print("unscaled wall-clock medians (s) " + json.dumps(walls, sort_keys=True))
    print(f"  {'failed_pct':34s} {checks.failed_pct!r} % "
          f"({checks.failed} of {checks.attempted} operations and checks)")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
