"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload steady_rounds --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes with no instrumentation and prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced passes and
prints every per-layer metric, including ``obs.trace_overhead`` (traced
round wall / untraced round wall).  Passes repeat until ``--seconds`` have
gone by (at least one; two when tracing).  ``--scale`` shrinks every size
for the self-test.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also leaves a record (stamped with what ran) under ``.perfbench/records``
and compares its estimate digest with earlier records of the same seed
and code.  The exit code is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent

#: Set-up is repeated at least this often per run; ``setup_s`` is the median.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def mean_scale(passes) -> float:
    """The run's mean host-speed scale over its untraced passes."""
    return statistics.fmean(
        k for p in passes if not p.layers for k in p.round_scales
    )


def end_to_end(passes, setups, restores, peak_rss_mb, scaled) -> dict:
    """The gated metrics.  ``restores`` are ``(seconds, scale)`` pairs.
    With ``scaled``, times are scaled to the reference host (see
    ``calibration``): rounds and polls by their pass's mean scale, a
    restore by the scale its process measured around it, and set-ups by
    the run's mean scale.  Without, the times are as the host ran them."""
    timed = [p for p in passes if not p.layers]
    run_scale = mean_scale(passes) if scaled else 1.0

    def pass_scale(p):
        return statistics.fmean(p.round_scales) if scaled else 1.0

    rounds = [ms * pass_scale(p) for p in timed for ms in p.round_ms]
    polls = [ms * pass_scale(p) for p in timed for ms in p.poll_ms]
    walls_s = sum(rounds) / 1000.0
    return {
        "setup_s": statistics.median(setups) * run_scale,
        "round_mean_ms": statistics.fmean(rounds),
        "round_p90_ms": percentile(rounds, 90),
        "queries_per_s": sum(p.queries for p in timed) / walls_s,
        "updates_per_s": sum(p.updates for p in timed) / walls_s,
        "poll_mean_ms": statistics.fmean(polls),
        "restore_s": statistics.fmean(
            s * (k if scaled else 1.0) for s, k in restores
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result, synth_s: float, untraced_ms: float) -> dict:
    """Per-layer metrics of one traced pass."""
    seconds = result.layers["seconds"]
    calls = result.layers["calls"]

    def s(key):
        return seconds.get(key, 0.0)

    def per_call(key):
        return s(key) / calls[key] if calls.get(key) else 0.0

    queries = result.interface.get("queries", 0) or 1
    drilldowns = result.drilldowns_fresh + result.drilldowns_reissued
    handlers = ("run_rounds", "submit", "reports", "ledger", "health")
    handler_s = sum(s(f"handler.{name}") for name in handlers)
    requests = calls.get("client", 0)
    sizes = result.layers["snapshot_sizes"]
    metrics = {
        "data.synth_s": synth_s,
        "hiddendb.load_s": s("load"),
        "hiddendb.index_build_s": s("index_build"),
        "hiddendb.churn_s": s("churn"),
        "hiddendb.churn_rows": calls.get("churn", 0),
        "hiddendb.publish_s": s("publish"),
        "hiddendb.search_s": s("search"),
        "hiddendb.search_calls": calls.get("search", 0),
        "hiddendb.validate_s": s("validate"),
        "hiddendb.count_prefix_s": s("count_prefix"),
        "hiddendb.gather_s": s("gather"),
        "hiddendb.topk_s": s("topk"),
        "hiddendb.valid_share": result.interface.get("valid", 0) / queries,
        "hiddendb.overflow_share":
            result.interface.get("overflow", 0) / queries,
        "hiddendb.underflow_share":
            result.interface.get("underflow", 0) / queries,
        "core.drill_from_root_s": per_call("drill_from_root"),
        "core.reissue_update_s": per_call("reissue_update"),
        "core.drilldowns_fresh": result.drilldowns_fresh,
        "core.drilldowns_reissued": result.drilldowns_reissued,
        "core.queries_per_drilldown": queries / drilldowns if drilldowns else 0.0,
        "core.estimator_self_s": s("estimator_round") - s("session_search"),
        "api.engine_overhead_s": s("engine_round") - s("estimator_round"),
        "api.snapshot_s": s("snapshot"),
        "api.snapshot_bytes": statistics.fmean(sizes) if sizes else 0.0,
        "service.governor_s": s("governor"),
        "service.http_hop_ms": (
            (s("client") - handler_s) / requests * 1000.0 if requests else 0.0
        ),
        "service.poll_late_ms": (
            statistics.fmean(result.poll_late_ms) if result.poll_late_ms
            else 0.0
        ),
        "obs.trace_overhead": sum(result.round_ms) / untraced_ms,
    }
    for name in handlers:
        metrics[f"service.handler_s.{name}"] = s(f"handler.{name}")
    return metrics


def median_metrics(samples: list[dict]) -> dict:
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }


def prior_digests(records: Path, key: dict) -> list[tuple[str, str]]:
    """``(record file, digest)`` of earlier healthy runs with the same
    key.  A run with a failed check or a failed operation is no
    reference: a refused tenant changes its digest."""
    found = []
    for path in sorted(records.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if record.get("problems") or record.get("failed", 1):
            continue
        if all(record.get("key", {}).get(k) == v for k, v in key.items()):
            found.append((path.name, record.get("digest")))
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "perfbench: no src/repro under the current directory; run it "
            "from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }
    state = root / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    (state / "records").mkdir(parents=True, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=state / "tmp")
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, tmp_dir)
        tracer = Tracer()
        with tracer.installed(bool(args.trace)):
            inputs = workload.synthesize()
        synth_s = tracer.freeze()["seconds"].get("synth", 0.0)

        passes = []
        restores = []
        problems = []
        peak_rss_mb = None
        started = perf_counter()
        min_passes = 2 if args.trace else 1
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.reset()
            with tracer.installed(traced):
                result, live = workload.run_pass(inputs, tracer)
            if not traced:
                result.layers = {}
            if peak_rss_mb is None:
                # The peak of one workload engine (and the run's inputs),
                # before any restore or direct run builds a second one.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024
            passes.append(result)
            try:
                samples, found = workload.restore(live)
                restores += samples
                problems += found
            finally:
                workload.release(live)
            del live
            # Stop at the pass boundary nearest to --seconds (restores
            # included, so that a run's length does not depend on them).
            elapsed = perf_counter() - started
            if (len(passes) >= min_passes
                    and elapsed * (1 + 0.5 / len(passes)) >= args.seconds):
                break
        setups = [p.setup_s for p in passes if not p.layers]
        while len(setups) < SETUP_SAMPLES:
            setups.append(workload.setup_only(inputs, tracer))

        digests = {p.digest for p in passes}
        if len(digests) != 1:
            problems.append(
                f"estimate digests differ between passes of one seed "
                f"(traced and untraced): {sorted(digests)}"
            )
        digest = passes[0].digest
        direct = getattr(workload, "direct_digest", None)
        if direct is not None and direct(inputs, Tracer()) != digest:
            problems.append(
                "estimates served over HTTP differ from a direct Engine run"
            )
        e2e = end_to_end(passes, setups, restores, peak_rss_mb, True)
        e2e_host = end_to_end(passes, setups, restores, peak_rss_mb, False)
        rel_error_mean = statistics.fmean(passes[0].rel_errors)
        if not rel_error_mean < 1.0:
            problems.append(f"rel_error_mean {rel_error_mean} is not below 1.0")

        key = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "rounds": workload.rounds,
            "code": code_digest(root),
        }
        records = state / "records"
        for name, other in prior_digests(records, key):
            if other != digest:
                problems.append(
                    f"estimate digest differs from earlier run {name} of "
                    f"the same seed and code"
                )

        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        if args.trace:
            traced_passes = [p for p in passes if p.layers]
            untraced_ms = statistics.median(
                sum(p.round_ms) for p in passes if not p.layers
            )
            metrics = median_metrics([
                per_layer(p, synth_s, untraced_ms) for p in traced_passes
            ])
            catalogue = units["per_layer"]
        else:
            metrics = e2e
            catalogue = units["end_to_end"]
        if set(metrics) != set(catalogue):
            problems.append(
                f"metrics measured {sorted(set(metrics) ^ set(catalogue))} "
                f"do not match BENCHMARK.json"
            )

        first = passes[0]
        record = {
            "key": key,
            "digest": digest,
            "mode": "traced" if args.trace else "timed",
            "git_sha": git_sha(root),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": first.backend,
            "overlap": first.overlap,
            "observability": False,
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": len(passes),
            "rounds_timed": sum(len(p.round_ms) for p in passes),
            "setup_samples": setups,
            "round_scales": [p.round_scales for p in passes],
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "rel_error_mean": rel_error_mean,
            "restore_samples": restores,
            "round_ms": [[round(ms, 3) for ms in p.round_ms] for p in passes],
            "poll_ms": [[float(f"{ms:.4g}") for ms in p.poll_ms]
                        for p in passes],
            "traced_passes": [bool(p.layers) for p in passes],
            "problems": problems,
            "metrics": metrics,
            "end_to_end": e2e,
            "end_to_end_host": e2e_host,
            "unix_time": time.time(),
        }
        stem = (f"{args.workload}-seed{args.seed}-{record['mode']}-"
                f"{time.time_ns()}")
        (records / f"{stem}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )

        print(f"workload {args.workload} seed {args.seed} "
              f"({record['mode']}, backend {first.backend}, "
              f"overlap {first.overlap}, {len(passes)} passes, "
              f"{record['rounds_timed']} timed rounds, "
              f"{sum(len(p.poll_ms) for p in passes)} polls)")
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {catalogue.get(name, '?')}")
        # Printed but not gated (see README.md): the medians jump between
        # the host's speed regimes, error_rate is 0 on a healthy run, and
        # rel_error_mean spreads too widely across seeds for any bound.
        # Times are scaled like the gated ones, except the "unscaled" ones.
        run_scale = mean_scale(passes)
        rounds = [ms * statistics.fmean(p.round_scales) for p in passes
                  if not p.layers for ms in p.round_ms]
        polls = [ms * statistics.fmean(p.round_scales) for p in passes
                 if not p.layers for ms in p.poll_ms]
        print(f"  {'round_p50_ms':<32} {percentile(rounds, 50):>14.6g} ms "
              f"(of {len(rounds)} rounds)")
        print(f"  {'poll_p50_ms':<32} {percentile(polls, 50):>14.6g} ms "
              f"(of {len(polls)} polls)")
        print(f"  {'poll_p90_ms':<32} {percentile(polls, 90):>14.6g} ms")
        print(f"  {'host speed scale':<32} {run_scale:>14.6g} ratio")
        for name, value in e2e_host.items():
            if name != "peak_rss_mb":
                print(f"  {'unscaled ' + name:<32} {value:>14.6g} "
                      f"{units['end_to_end'].get(name, '?')}")
        print(f"  {'rel_error_mean':<32} {rel_error_mean:>14.6g} ratio")
        print(f"  {'error_rate':<32} {failed / attempted:>14.6g} share "
              f"({failed} of {attempted} operations)")
        poll_late = [ms for p in passes for ms in p.poll_late_ms]
        if poll_late:
            print(f"  {'poll generator late p90':<32} "
                  f"{percentile(poll_late, 90):>14.6g} ms")
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": catalogue.get(name, "?")}
                for name, value in metrics.items()
            },
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
