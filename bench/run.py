"""pointcast benchmark: one workload in one fresh process.

    python3 bench/run.py --workload train-overfit --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it installs span wrappers (``bench/spans.py``) and reports
the per-layer metrics instead. Metric names and units are those of
``BENCHMARK.json``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record of the
run (context, scene-set statistics, output digests, per-layer table) is
written to ``bench/_runs/<workload>-seed<seed>-trace<t>/``.

Exit codes: 0 when every output checked out, 1 when an operation failed or
an output was wrong, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread, fixed before numpy loads: on 2 cores the default pool
# made train throughput spread several times wider between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

# setup_s is the median over fresh processes, each timed from its start until
# its workload is set up. The host's speed can shift by half for seconds at a
# time, so this many run before each pass and after the last, spread over the
# run rather than bunched together.
PROBES_PER_GAP = 2

# spans run once at set-up (the model restore): reported in ms per call, not per scene
SETUP_SPANS = {"checkpoint.load"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few scenes per workload, for the benchmark's own check")
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help="set up in DIR, print 'ready' and exit: one sample of setup_s")
    return p.parse_args(argv)


def import_program():
    """Import pointcast from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import pointcast
    except ImportError as exc:
        print(f"error: cannot import pointcast from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(pointcast.__file__).resolve().parents:
        print(f"error: pointcast imported from {pointcast.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
        "machine": platform.machine(),
    }


def cold_setups(args, probe_dir: Path) -> list[float]:
    """Seconds from starting a fresh process until its workload is set up, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(probe_dir)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(PROBES_PER_GAP):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode} after {line.strip()!r}")
        times.append(t1 - t0)
    return times


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else math.nan


def end_to_end_metrics(m, scenes_per_pass: int, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "scenes_per_s": scenes_per_pass / statistics.median(m.passes_s) if m.passes_s else 0.0,
        "scene_ms_p50": percentile(m.samples_ms, 50),
        "scene_ms_p90": percentile(m.samples_ms, 90),
        "loss_end": m.loss_end,
        "peak_rss_mb": m.peak_rss_mb,
    }


def per_layer_metrics(names, tracer, n_scenes: int) -> tuple[dict, dict]:
    """Each metric from its name: ``<span>.ms`` or ``<span>.self_ms`` is self
    ms per scene, ``<span>.calls`` calls per scene, anything else a count
    recorded by the tracer, per scene."""
    tables = {"measure": tracer.table("measure"), "setup": tracer.table("setup")}
    counts = tracer.counts["measure"]
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind in ("ms", "self_ms", "calls"):
            if span not in tracer.names:
                raise KeyError(f"metric {name}: the tracer has no span {span!r}")
            if span in SETUP_SPANS:
                row = tables["setup"][span]
                out[name] = row["self_ms"] / row["calls"] if row["calls"] else 0.0
            else:
                row = tables["measure"][span]
                out[name] = (row["calls"] if kind == "calls" else row["self_ms"]) / n_scenes
        else:
            if name not in tracer.count_names:
                raise KeyError(f"metric {name}: the tracer counts no {name!r}")
            out[name] = counts.get(name, 0.0) / n_scenes
    return out, tables


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()

    if args.setup_only:
        try:
            wl.setup(args.setup_only, args.seed)
            print("ready", flush=True)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = RUNS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if tracer is not None:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        state = wl.setup(run_dir / "work", args.seed)
        setup_here_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = "measure"
        m = workloads.Measurement()
        setup_probes_s = []
        t0 = time.perf_counter()
        while workloads.another_pass(m, args.seconds):
            # the traced run reports no setup_s, so it starts no probes
            if tracer is None:
                setup_probes_s += cold_setups(args, run_dir / "probe")
            wl.run_pass(state, m, tracer)
        if tracer is None:
            setup_probes_s += cold_setups(args, run_dir / "probe")
        loop_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = None
        stats = workloads.scene_stats(wl.raw_scenes(state), wl.model)
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)

    setup_s = statistics.median(setup_probes_s) if setup_probes_s else math.nan
    e2e = end_to_end_metrics(m, wl.scenes_per_pass, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "context": run_context(),
        "setup_probes_s": setup_probes_s, "setup_in_process_s": setup_here_s,
        "loop_s": loop_s, "passes_s": m.passes_s, "samples": len(m.samples_ms),
        "attempted": m.attempted, "failed": m.failed, "errors": m.errors[:10],
        "end_to_end": e2e, "outputs": m.outputs, "scene_set": stats,
    }
    if tracer is not None:
        section = spec["per_layer"]
        metrics, record["layers"] = per_layer_metrics([s["name"] for s in section], tracer,
                                                      max(m.attempted, 1))
        tracer.write_spans(run_dir / "spans.npz")
    else:
        section = spec["end_to_end"]
        metrics = {s["name"]: e2e[s["name"]] for s in section}
    units = {s["name"]: s["unit"] for s in section}
    record["metrics"] = metrics
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = (
        m.failed == 0 and m.attempted > 0 and not m.errors
        and all(math.isfinite(v) for v in metrics.values())
    )
    points = np.array([s["points"] for s in stats])
    pairs = np.array([sum(s["pairs"]) for s in stats])
    ctx = record["context"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{m.attempted} scenes in {len(m.passes_s)} whole passes of {sum(m.passes_s):.1f} s, "
          f"{len(m.samples_ms)} latency samples")
    print(f"scene set: {len(stats)} scenes, points {points.min()}..{points.max()} "
          f"(mean {points.mean():.1f}), radius pairs per point {pairs.sum() / points.sum():.2f}")
    print(f"context: git {ctx['git_sha'][:12]}, python {ctx['python']}, numpy {ctx['numpy']}, "
          f"{ctx['blas']}, nproc {ctx['nproc']}, blas threads {BLAS_THREADS}")
    print(f"fail_rate {m.failed / max(m.attempted, 1):.4g} ({m.failed}/{m.attempted})")
    for err in m.errors[:3]:
        print(f"failure: {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(m.attempted),
        "failed": int(m.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
