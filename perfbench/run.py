"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports nodegae from that checkout's
``src`` only. With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full record (run environment, samples, detailed table) goes to
``.perfbench_runs/`` in the checkout. See README.md beside this file.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stage1-512", "stage2-4096", "cli-512")
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The first round is the reference the others must reproduce; three rounds make
# the median a middle sample on every workload.
MIN_ROUNDS = 3


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout; src_sha256 names the code
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _source_digest() -> str:
    """sha256 over src/**/*.py, which names the code when the checkout has no git history."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def execute(workload, seconds: float, trace: bool, checks):
    """Set up SETUP_REPS times, then run rounds for ``seconds`` (at least MIN_ROUNDS).

    With ``trace`` the set-up's data and operator build and the odd rounds
    run traced; the even rounds are the untraced control that the tracing
    overhead is measured against. Warm-up is never traced.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    setup = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t = perf_counter()
        if tracer:
            tracer.install()
        try:
            workload.prepare(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        workload.warm_up()
        setup.append(perf_counter() - t)

    plain, traced, reference = [], [], None
    start = perf_counter()
    k = 0
    while k < MIN_ROUNDS or perf_counter() - start < seconds:
        use_tracer = tracer if trace and k % 2 == 1 else None
        gc.collect()
        if use_tracer:
            tracer.run_id = f"r{k}"
            tracer.install()
        t = perf_counter()
        try:
            out = workload.work(use_tracer)
        except Exception:
            traceback.print_exc()
            checks.expect(False, f"{workload.name}: round {k} raised")
            k += 1
            continue
        finally:
            if use_tracer:
                tracer.uninstall()
        out["round_s"] = perf_counter() - t - out.get("excluded_s", 0.0)
        digest = workload.check(out, checks)
        if reference is None:
            reference = digest
        else:
            checks.expect(digest == reference,
                          f"{workload.name}: round {k} outputs differ from round 0")
        (traced if use_tracer else plain).append(out)
        k += 1
    return {
        "setup_s": stats.median(setup),
        "setup_samples": setup,
        "plain": plain,
        "traced": traced,
        "tracer": tracer,
    }


def make_workload(name: str, seed: int, work_dir: Path):
    import workloads

    kind = {"stage1-512": workloads.Stage1, "stage2-4096": workloads.Stage2,
            "cli-512": workloads.Cli}[name]
    return kind(seed, ROOT / "src", work_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, also in every child process. With two, each GEMM waits
    # for the slower core, and the stage2-4096 spread over ten seeds reached
    # 26%. Set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    src = ROOT / "src"
    if not (src / "nodegae" / "__init__.py").is_file():
        print(f"error: no nodegae sources under {src}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import nodegae

    if Path(nodegae.__file__).resolve().parent != (src / "nodegae").resolve():
        print(f"error: imported nodegae from {nodegae.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from workloads import Checks

    out_dir = ROOT / ".perfbench_runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = out_dir / f"{tag}-work"
    shutil.rmtree(work_dir, ignore_errors=True)
    checks = Checks()
    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        res = execute(workload, args.seconds, bool(args.trace), checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not res["plain"]:
        print("error: no round completed", file=sys.stderr)
        return 2

    e2e_specs, layer_specs = _metric_specs()
    plain = res["plain"]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "run": run_record(args.seed), "rounds": len(plain) + len(res["traced"]),
              "round_s_samples": [r["round_s"] for r in plain],
              "fit_s_samples": [r["fit_s"] for r in plain],
              "infer_s_samples": [r["infer_s"] for r in plain],
              "setup_s_samples": res["setup_samples"],
              "failures": checks.failures,
              "table": {k: {"value": v, "unit": u}
                        for k, (v, u) in workload.table(plain).items()}}
    record["table"]["failed_ops_ratio"] = {
        "value": stats.failed_ops_ratio(checks.attempted, checks.failed), "unit": "ratio"}
    if args.trace:
        from tracing import layer_values

        tracer, traced = res["tracer"], res["traced"]
        values = layer_values(tracer.spans, SETUP_REPS,
                              sorted({s[4] for s in tracer.spans} - {"setup"}))
        if traced:
            base = stats.median([r["round_s"] for r in plain])
            overhead = stats.median([r["round_s"] for r in traced]) - base
            values["trace.overhead_s"] = overhead
            values["trace.overhead_share"] = overhead / base
        values["trace.spans"] = float(len(tracer.spans))
        record["layers"] = dict(sorted(values.items()))
        specs = layer_specs
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{tag}-spans.tsv")
    else:
        values = {
            "setup_s": res["setup_s"],
            "peak_rss_mb": _peak_rss_mb(children=args.workload == "cli-512"),
            "ok_ops_ratio": 1.0 - stats.failed_ops_ratio(checks.attempted, checks.failed),
            "round_s": stats.median([r["round_s"] for r in plain]),
            "fit_s": stats.median([r["fit_s"] for r in plain]),
            "final_loss": plain[0]["final_loss"],
        }
        specs = e2e_specs

    metrics = {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
               for s in specs}
    record["metrics"] = metrics
    record["correct"] = checks.failed == 0
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("run: " + json.dumps(record["run"], sort_keys=True))
    for key, entry in record["table"].items():
        print(f"  {args.workload:12s} {key:28s} {entry['value']!r} {entry['unit']}")
    for key, entry in metrics.items():
        print(f"  {args.workload:12s} {key:28s} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
