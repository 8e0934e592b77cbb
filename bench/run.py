"""flipmatch benchmark: one workload, one process, BLAS pinned to one thread.

    python3 bench/run.py --workload ladder16-train --seed 0 --seconds 32 --trace 0

Runs rounds of the workload until ``--seconds`` have passed (at least three
rounds), checks every round's outputs, and prints a manifest, the workload's
named metrics, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones plus the tracing overhead.
Exits 0 when every gate passed, 1 when one failed, 2 when the library cannot
be loaded from this checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("ladder16-train", "grid32-sample", "grid32-local")


class LibraryMissing(Exception):
    pass


def load_library():
    """Import flipmatch from this checkout's src/, and from nowhere else."""
    if not (SRC / "flipmatch" / "__init__.py").is_file():
        raise LibraryMissing(f"no flipmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flipmatch

    where = Path(flipmatch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise LibraryMissing(f"flipmatch was imported from {where}, not from {SRC}")
    return flipmatch


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "flipmatch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    """HEAD's commit read from .git, or 'none' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, flipmatch) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "flipmatch": flipmatch.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def clear_library_caches() -> None:
    """Empty flipmatch's module-level memo caches, so each set-up is cold.

    A fresh process pays for the chordal completion once; without this the
    second set-up of a run would find it cached and read faster.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "flipmatch" or name.startswith("flipmatch.")):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(wl, seed: int, seconds: float, rec, tracer=None) -> tuple[list, list, list]:
    """Rounds until ``seconds`` pass; returns (setup_s, round_s, traced flags)."""
    setups, rounds, traced = [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # a traced run alternates untraced and traced rounds, starting
        # untraced; the untraced ones are the baseline for the overhead
        if tracer is not None:
            if len(rounds) % 2:
                tracer.install()
            elif tracer.installed:
                tracer.remove()
        clear_library_caches()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup = time.perf_counter() - t0
        pre, timed = wl.round(state, seed, rec)
        setups.append(setup + pre)
        rounds.append(timed)
        traced.append(tracer is not None and tracer.installed)
    return setups, rounds, traced


def end_to_end(wl, rec, setups, rounds) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "main_per_s": (wl.named(rec)[wl.main_metric][0], "1/s"),
        "round_s": (statistics.median(rounds), "s"),
    }


def per_layer(tracer, rec, rounds, traced) -> dict:
    n = sum(traced)
    out = {}
    for target in tracer.targets:
        st = tracer.stats[target.span]
        out[f"{target.span}.calls"] = (st.calls / n, "count")
        out[f"{target.span}.self_s"] = (st.self_s / n, "s")
        if target.rows is not None:
            out[f"{target.span}.rows"] = (st.rows / n, "count")
    for span in ("nn.mae.masked_logits_np", "nn.mae.masked_logits"):
        out[f"{span}.flops"] = (tracer.stats[span].flops / n, "flop")
    out["nn.mae.input_fill_frac"] = (
        tracer.input_nonzero / max(tracer.input_entries, 1),
        "frac",
    )
    out["nn.mae.logit_use_frac"] = (
        tracer.logits_read / max(tracer.logits_computed, 1),
        "frac",
    )
    out["harness.ops_attempted"] = (rec.attempted, "count")
    out["harness.ops_failed"] = (rec.failed, "count")
    on = statistics.median(r for r, t in zip(rounds, traced) if t)
    off = statistics.median(r for r, t in zip(rounds, traced) if not t)
    out["trace.overhead_frac"] = (on / off - 1.0, "frac")
    out["trace.traced_rounds"] = (n, "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # before numpy is imported anywhere in this process
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        flipmatch = load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"bench: cannot load flipmatch: {exc}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    wl = WORKLOADS[args.workload]()
    rec = Recorder()
    tracer = Tracer() if args.trace else None
    print(f"# manifest {json.dumps(manifest(args, flipmatch), sort_keys=True)}")
    try:
        wl.prepare(args.seed)
        setups, rounds, traced = run_rounds(wl, args.seed, args.seconds, rec, tracer)
    except Exception:  # a library call raised: count it, report, fail the run
        traceback.print_exc()
        rec.gate(False, "a library call raised")
        setups, rounds, traced = [], [], []
    finally:
        if tracer is not None:
            tracer.remove()

    for what in rec.failures:
        print(f"# FAILED {what}")
    metrics = {}
    if rounds:
        for name, (value, unit, how) in wl.named(rec).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"# {wl.name} {name} = {shown} {unit} ({how})")
        print(f"# {wl.name} rounds = {len(rounds)}, setup samples = {len(setups)}")
        if tracer is None:
            table = end_to_end(wl, rec, setups, rounds)
        else:
            table = per_layer(tracer, rec, rounds, traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
