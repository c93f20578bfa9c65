"""Benchmark of the flagship image near-duplicate pipeline
(``simhash_ray.pipelines.dedup_images.dedup_images``).

    python3 perfbench/run.py --workload direct --seed 1 --seconds 14 --trace 0

Run from the repository root (any directory holding ``simhash_ray/``
next to ``perfbench/``).  One invocation is one process that starts its
own Ray session.  The last stdout line is the result JSON
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it holds the run's details (host, pass times, check results).  Every
other output goes to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench")  # inputs and traces
RAY_TMP = os.path.join(ROOT, ".rt")  # short: Ray's socket paths are capped
RAY_TMP_MAX_LEN = 43  # 107-byte AF_UNIX limit minus Ray's session suffix
RAY_SESSIONS_KEPT = 8

# name → (hot_frac of the input, broadcast_sig_limit passed to dedup_images)
WORKLOADS = {
    "direct": (0.0, None),
    "distributed": (0.0, 0),
    "hot_caption": (0.1, 0),
}
LOGICAL_CPUS = 4  # fixed, not nproc: 1 deadlocks, 2 stalls (README)
OBJECT_STORE_BYTES = 512 * 1024 * 1024
WARMUP_ROWS = 1024
SIG_SAMPLE = 1000  # rows whose program simhash is checked against the spec
QUERY_SAMPLE = 500  # rows brute-force scanned for within-tau neighbours
KERNEL_ROWS = 8192  # captions in the in-process kernel batch
COLUMNS = ["image_id", "caption", "phash"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="image dedup pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


@contextlib.contextmanager
def stdout_to_stderr():
    """Point fd 1 at stderr (Ray and its child processes included);
    yields nothing, restores stdout on exit."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def _prune_sessions(temp_dir: str, keep: int) -> None:
    """Delete all but the newest ``keep`` Ray session dirs (logs only;
    one run at a time uses this directory)."""
    if not os.path.isdir(temp_dir):
        return
    olds = sorted(d for d in os.listdir(temp_dir) if d.startswith("session_2"))
    for d in olds[:-keep]:
        shutil.rmtree(os.path.join(temp_dir, d), ignore_errors=True)


class Session:
    """One local Ray session whose processes are all ended on stop()."""

    def __init__(self):
        import ray
        import psutil  # ray ships it; importable once ray is imported
        from ray.data import DataContext

        kwargs = {}
        if len(RAY_TMP) <= RAY_TMP_MAX_LEN:
            kwargs["_temp_dir"] = RAY_TMP
            _prune_sessions(RAY_TMP, keep=RAY_SESSIONS_KEPT)
        else:
            print(f"checkout path too long for Ray sockets under {RAY_TMP}; "
                  "using Ray's default temp dir", file=sys.stderr)
        ray.init(
            address="local",
            num_cpus=LOGICAL_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            **kwargs,
        )
        DataContext.get_current().enable_progress_bars = False
        self._ray, self._psutil = ray, psutil

    def stop(self):
        me = self._psutil.Process()
        procs = me.children(recursive=True)
        self._ray.shutdown()
        _, alive = self._psutil.wait_procs(procs, timeout=30)
        for p in alive:
            p.kill()
        self._psutil.wait_procs(alive, timeout=30)


def host_info() -> dict:
    import ray

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_gb": round(
            os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "ray": ray.__version__,
        "ray_logical_cpus": LOGICAL_CPUS,
        "python": platform.python_version(),
    }


def full_pass(fixture_dir: str, limit, n_rows: int | None = None):
    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.pipelines.dedup_images import dedup_images
    from simhash_ray.sources.tables import read_table

    images = read_table(fixture_dir, "images", columns=COLUMNS)
    if n_rows is not None:
        images = images.limit(n_rows)
    res = dedup_images(images, DEFAULT_CONFIG, broadcast_sig_limit=limit)
    res.assignment.count()
    return res


def run_checks(fixture_dir: str, seed: int, assignment, edges) -> dict:
    """Checks (a)-(e) on one pass's output: {check: failures}."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    import checks
    from simhash_ray.pipelines.dedup_images import signatures

    images = pq.read_table(os.path.join(fixture_dir, "images.parquet"),
                           columns=COLUMNS).to_pandas()
    truth = pq.read_table(os.path.join(fixture_dir, "truth.parquet")).to_pandas()
    ref = checks.Reference(images, truth)
    rng = np.random.default_rng(seed)
    n = len(ref.ids)
    sample_ids = ref.ids[np.sort(rng.choice(n, min(SIG_SAMPLE, n), replace=False))]
    sample = images.set_index("image_id").loc[sample_ids].reset_index()
    prog_sigs = signatures(rd.from_pandas(sample[COLUMNS])).to_pandas()
    queries = rng.choice(n, min(QUERY_SAMPLE, n), replace=False)
    todo = {
        "a_partition": lambda: checks.check_partition(ref, assignment),
        "b_signatures": lambda: checks.check_signatures(ref, sample_ids, prog_sigs),
        "c_edges": lambda: checks.check_edges(ref, edges, assignment),
        "d_completeness": lambda: checks.check_completeness(ref, queries, assignment),
        "e_truth": lambda: checks.check_truth(ref, assignment),
    }
    out = {}
    for name, check in todo.items():
        try:
            out[name] = check()
        except (KeyError, ValueError) as e:  # e.g. an id the input lacks
            out[name] = [f"{name}: {e!r}"]
    return out


def warm_session(fixture_dir: str):
    """Start a session and warm it with a direct-regime pass on a slice
    of the input; returns (session, seconds)."""
    t0 = time.perf_counter()
    session = Session()
    try:
        full_pass(fixture_dir, None, WARMUP_ROWS)
    except BaseException:
        session.stop()
        raise
    return session, time.perf_counter() - t0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_e2e(args, fixture_dir: str, limit) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    import ray  # noqa: F401  (import cost belongs to set-up)

    import simhash_ray.pipelines.dedup_images  # noqa: F401
    import simhash_ray.sources.tables  # noqa: F401
    from simhash_ray.logging_filters import install_empty_schema_drift_filter

    install_empty_schema_drift_filter()
    import_s = time.perf_counter() - t0

    session, setup_s = warm_session(fixture_dir)
    passes, failed, last = [], 0, None
    check_out, n_rows = {}, 0
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            try:
                res = full_pass(fixture_dir, limit)
                passes.append(time.perf_counter() - t0)
                last = res
            except Exception:  # a failed pass is counted, the run goes on
                traceback.print_exc()
                failed += 1
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = time.perf_counter()
        if last is not None:
            n_rows = last.assignment.count()
            check_out = run_checks(fixture_dir, args.seed, last.assignment.to_pandas(),
                                   last.edges.to_pandas())
    finally:
        session.stop()
    checks_s = time.perf_counter() - t0
    result = {
        "correct": last is not None and not any(check_out.values()),
        "attempted": len(passes) + failed,
        "failed": failed,
        "metrics": {
            "rows_per_s": metric(
                n_rows / statistics.median(passes) if passes else 0.0, "rows/s"),
            "setup_s": metric(import_s + setup_s, "s"),
            "driver_peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }
    detail = {"passes_s": passes, "session_setup_s": setup_s, "import_s": import_s,
              "checks_and_stop_s": checks_s, "rows": n_rows, "checks": check_out}
    return result, detail


def run_traced(args, fixture_dir: str, limit) -> tuple[dict, dict]:
    from simhash_ray.logging_filters import install_empty_schema_drift_filter

    install_empty_schema_drift_filter()
    session, _ = warm_session(fixture_dir)
    try:
        return _traced(args, fixture_dir, limit)
    finally:
        session.stop()


def _traced(args, fixture_dir: str, limit) -> tuple[dict, dict]:
    import pyarrow.parquet as pq

    import checks
    import tracing
    from simhash_ray.config import DEFAULT_CONFIG as cfg

    t0 = time.perf_counter()
    plain = full_pass(fixture_dir, limit)
    untraced_s = time.perf_counter() - t0

    own_direct = limit is None
    tr = tracing.Tracer()
    with tr.span("pass") as root:
        sigs, n_rows = tracing.traced_encode(tr, fixture_dir)
        if own_direct:
            assignment, edges = tracing.traced_direct_tail(tr, sigs, cfg)
        else:
            assignment, edges = tracing.traced_distributed_tail(tr, sigs, cfg, n_rows)
    traced_s = root["end"] - root["start"]
    # the layers of the other regime, on the same signatures: outside
    # the traced pass, reported only for the layers the pass skipped
    other = tracing.Tracer()
    with other.span("other_regime"):
        if own_direct:
            other_assignment, _ = tracing.traced_distributed_tail(other, sigs, cfg, n_rows)
        else:
            other_assignment, _ = tracing.traced_direct_tail(other, sigs, cfg)

    captions = pq.read_table(os.path.join(fixture_dir, "images.parquet"),
                             columns=["caption"])["caption"].to_pylist()[:KERNEL_ROWS]
    kernels = tracing.kernel_metrics(captions, args.seed)

    assignment_df = assignment.to_pandas()
    check_out = run_checks(fixture_dir, args.seed, assignment_df, edges.to_pandas())
    check_out["traced_equals_untraced"] = (
        [] if checks.same_partition(assignment_df, plain.assignment.to_pandas())
        else ["traced pass assignment differs from the untraced pass"])
    check_out["regimes_agree"] = (
        [] if checks.same_partition(assignment_df, other_assignment.to_pandas())
        else ["direct and distributed regimes assign different clusters"])

    own_self, other_self = tr.self_times(root["id"]), other.self_times(0)
    skipped = tracing.DISTRIBUTED_ONLY if own_direct else tracing.DIRECT_ONLY
    m = {}
    for layer in tracing.LAYERS:
        src = other_self if layer in skipped else own_self
        m[f"{layer}.s"] = metric(src[layer], "s")
    for name in tracing.COUNTERS:
        src = other.counters if name.split(".")[0] in skipped else tr.counters
        m[name] = metric(src[name], "count")
    m["encode.rows_per_s"] = metric(n_rows / own_self["encode"], "rows/s")
    cands = m["pair_verify.candidates"]["value"]
    m["pair_verify.yield"] = metric(
        m["pair_verify.verified"]["value"] / cands if cands else 0.0, "ratio")
    for name, (value, unit) in kernels.items():
        m[name] = metric(value, unit)
    m["traced_pass_s"] = metric(traced_s, "s")
    m["untraced_pass_s"] = metric(untraced_s, "s")
    m["tracing_overhead_s"] = metric(traced_s - untraced_s, "s")
    m["layer_coverage"] = metric(1.0 - own_self["pass"] / traced_s, "ratio")

    os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
    trace_path = os.path.join(RUN_DIR, "traces", f"{args.workload}-seed{args.seed}.json")
    meta = {"workload": args.workload, "seed": args.seed, "host": host_info()}
    tr.dump(trace_path, meta)
    other.dump(trace_path.replace(".json", "-other_regime.json"), meta)

    result = {
        "correct": not any(check_out.values()),
        "attempted": 1,
        "failed": 0,
        "metrics": m,
    }
    return result, {"rows": n_rows, "checks": check_out, "trace_file": trace_path}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "simhash_ray")):
        print(f"no simhash_ray package next to {HERE}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import inputs

    hot_frac, limit = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    fixture_dir = inputs.ensure_inputs(
        ROOT, os.path.join(RUN_DIR, "inputs"), args.seed, hot_frac)
    inputs_s = time.perf_counter() - t0
    t_run = time.perf_counter()
    with stdout_to_stderr():
        runner = run_traced if args.trace else run_e2e
        result, detail = runner(args, fixture_dir, limit)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host_info(),
                  inputs=inputs.spec_args(args.seed, hot_frac),
                  wall_s={"inputs": inputs_s, "run": time.perf_counter() - t_run})
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
