"""Benchmark of the geo360 CLI chain: camest -> compare -> camcode.

Run from a checkout of the repository (Python 3.10+, numpy):

    python3 perfbench/run.py --workload dolly_fixedq --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Set-up writes the workload's inputs from --seed five times and reports the
median as setup_s. The timed loop then runs the workload's chain as
in-process `geo360.cli.main([...])` calls until --seconds have passed, and
reports the median as chain_s. Both are wall times rescaled to a reference
machine speed (see ReferenceKernel). The first iteration's output files are
checked (see checks.py) and every later iteration must reproduce them byte
for byte; a non-zero exit or a failed check counts the operation as failed.

With --trace 1 the loop alternates untraced and traced iterations. Traced
ones run with timing wrappers on the public functions of every package
module (tracing.py) and give the per-layer metrics.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the line before it ("env {...}") records the machine, versions, BLAS thread
pin, seed, input sizes and the workload's reason from BENCHMARK.json. With
--workload all, each workload prints its block and the last line merges them.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
# ReferenceKernel.seconds() on a shared 2-core x86-64 VM (Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 0.015

END_TO_END_UNITS = {"setup_s": "s", "chain_s": "s", "peak_rss_mb": "MB"}
_PER_LAYER_SPECIAL_UNITS = {
    "video_io.bytes_read": "B",
    "mocomp.bytes_gathered_computed": "B",
    "motion_model.mapping_reuse": "ratio",
    "cam_code.payload_bits": "bit",
    "cam_code.bits_per_record": "bit",
}


def per_layer_unit(name: str) -> str:
    if name in _PER_LAYER_SPECIAL_UNITS:
        return _PER_LAYER_SPECIAL_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def import_program():
    """Import geo360 from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "geo360"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import geo360

    if Path(geo360.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: geo360 imported from {geo360.__file__}, not {package}")


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def workload_reasons() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {w["name"]: w["why"] for w in json.loads(path.read_text())["workloads"]}


def load_reference(workload: str, seed: int) -> dict | None:
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    return ref["workloads"].get(workload) if seed == ref["seed"] else None


def _kernel_step(x, i):
    return x + (i & 7)


class ReferenceKernel:
    """A fixed mix of interpreter and numpy work, timed around every set-up
    and chain iteration.

    The shared machines this runs on change speed by up to 2x within a
    minute, which moves every wall time of a run together. Dividing a median
    wall time by the median kernel time of the same phase removes that;
    multiplying by REFERENCE_KERNEL_S keeps the result in seconds at a fixed
    reference speed. The mix mirrors the chain's: Python calls and list
    comprehensions (camcode), many numpy calls on 3-vectors (camest, the
    codec) and gathers and trig over a frame-sized array (compare). The
    kernel does not call geo360, so a program change cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._plane = rng.random(128 * 256)
        self._index = rng.integers(0, self._plane.size, 100_000)
        self._pairs = [(i, float(i)) for i in range(20_000)]
        self._vector = np.array([0.6, 0.0, 0.8])

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total = _kernel_step(total, i)
        for _ in range(3):
            total += sum([abs(p - 7) for p, _ in self._pairs])
        for _ in range(1_500):
            total += float(np.linalg.norm(self._vector / 2.0))
        for _ in range(2):
            total += float(np.sin(self._plane.take(self._index)).sum())
        return time.perf_counter() - start

    def timed(self, fn, samples: list[float]):
        """(fn(), wall seconds); two kernel times before and two after go to samples."""
        samples += [self.seconds(), self.seconds()]
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        samples += [self.seconds(), self.seconds()]
        return result, wall


def rescaled(walls, kernel_samples) -> float:
    """Median wall time at the reference machine speed."""
    return statistics.median(walls) * REFERENCE_KERNEL_S / statistics.median(kernel_samples)


class Operations:
    """Operations attempted and failed; problems go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {op}: {p}", file=sys.stderr)


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    from checks import check_outputs
    from tracing import RunSpans, Tracer, chain_layer_metrics, median_metrics, spans_by_run
    from workloads import OUTPUT_OF, Paths, chain, run_cli, setup

    work_parent = BENCH_DIR / "_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_parent))
    paths = Paths(work)
    ops = Operations()
    kernel = ReferenceKernel()
    tracer = Tracer() if traced else None
    try:
        setup_wall, setup_kernel = [], []
        for k in range(SETUP_REPEATS):
            if tracer:
                tracer.run_id = f"setup-{k}"
                tracer.install()
            rc, wall = kernel.timed(lambda: setup(workload, seed, paths), setup_kernel)
            setup_wall.append(wall)
            if tracer:
                tracer.uninstall()
            ops.record("setup", [] if rc == 0 else [f"exit code {rc}"])
            if rc != 0:
                sys.exit("error: workload set-up failed")

        reference = load_reference(workload.name, seed)
        commands = chain(workload, paths)
        iterations = []  # (traced, chain wall seconds, {stage: wall seconds})
        chain_kernel = []
        first = None  # output hashes of the checked first iteration
        deadline = time.perf_counter() + seconds
        while True:
            index = len(iterations)
            is_traced = tracer is not None and index % 2 == 1
            if is_traced:
                tracer.run_id = f"chain-{index}"
                tracer.install()
            stage_s, rcs = {}, {}

            def run_chain():
                for stage, argv in commands:
                    start = time.perf_counter()
                    rcs[stage], _ = run_cli(argv)
                    stage_s[stage] = time.perf_counter() - start

            _, chain_wall = kernel.timed(run_chain, chain_kernel)
            if is_traced:
                tracer.uninstall()
            iterations.append((is_traced, chain_wall, stage_s))

            hashes = {stage: _hash_or_none(getattr(paths, OUTPUT_OF[stage])) for stage in rcs}
            if first is None:
                first = hashes
                problems = check_outputs(workload, paths, seed, reference)
                outputs = _output_summary(workload, paths)
            else:
                problems = {
                    stage: [] if hashes[stage] == first[stage]
                    else ["output differs from the first iteration"]
                    for stage in rcs
                }
            for stage in rcs:
                exit_problem = [] if rcs[stage] == 0 else [f"exit code {rcs[stage]}"]
                ops.record(stage, exit_problem + problems[stage])

            if time.perf_counter() >= deadline and (tracer is None or index >= 1):
                break

        untraced = [it for it in iterations if not it[0]]
        if not traced:
            metrics = {
                "setup_s": rescaled(setup_wall, setup_kernel),
                "chain_s": rescaled([it[1] for it in untraced], chain_kernel),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            runs = spans_by_run(tracer.spans)
            metrics = median_metrics([
                chain_layer_metrics(runs[f"chain-{i}"], workload, it[1])
                for i, it in enumerate(iterations)
                if it[0]
            ])
            metrics.update(_stage_rates(workload, untraced))
            metrics["video_io.synth_s"] = statistics.median(
                runs.get(f"setup-{k}", RunSpans([])).inclusive("video_io.synth_dolly")
                for k in range(SETUP_REPEATS)
            )
            # Each traced iteration against the untraced one just before it.
            metrics["trace.overhead_s"] = statistics.median(
                it[1] - iterations[i - 1][1] for i, it in enumerate(iterations) if it[0]
            )
        return {
            "ops": ops,
            "metrics": metrics,
            "iterations": len(untraced),
            "traced_iterations": len(iterations) - len(untraced),
            "setup_wall_s_median": statistics.median(setup_wall),
            "setup_kernel_s_median": statistics.median(setup_kernel),
            "chain_wall_s_median": statistics.median(it[1] for it in untraced),
            "chain_kernel_s_median": statistics.median(chain_kernel),
            "chain_wall_s_each": [it[1] for it in iterations],
            "outputs": outputs,
        }
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _stage_rates(workload, untraced) -> dict:
    """Median work per second of each CLI command; 0 where not in the chain."""
    work = {
        "camest": ("cli.camest_frames_per_s", workload.pairs),
        "compare": ("cli.compare_searches_per_s", workload.searches),
        "encode": ("cli.camcode_encode_records_per_s", workload.records),
        "decode": ("cli.camcode_decode_records_per_s", workload.records),
    }
    return {
        name: statistics.median(n / it[2][stage] for it in untraced)
        if stage in workload.stages else 0.0
        for stage, (name, n) in work.items()
    }


def _hash_or_none(path: str) -> str | None:
    from checks import sha256

    try:
        return sha256(path)
    except OSError:
        return None


def _output_summary(workload, paths) -> dict:
    """What reference.json pins for the reference seed."""
    from checks import compare_rows

    outputs = {}
    if "compare" in workload.stages:
        outputs["aggregate_sad"] = compare_rows(paths.compare)[1]
    if "encode" in workload.stages:
        outputs["code_sha256"] = _hash_or_none(paths.code)
    return outputs


def report(workload, args) -> dict:
    """Run one workload, print its metrics and env line; return the result."""
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    ops, metrics = result.pop("ops"), result.pop("metrics")
    units = END_TO_END_UNITS if not args.trace else {n: per_layer_unit(n) for n in metrics}
    env = {
        "workload": workload.name,
        "why": workload_reasons().get(workload.name),
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "sizes": workload.sizes(),
        **result,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_thread_pin": BLAS_THREAD_PIN,
        "fail_share": ops.failed / ops.attempted,
    }
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"{'fail_share':34s} {ops.failed}/{ops.attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload != "all":
        print(json.dumps(report(WORKLOADS[args.workload], args)))
        return 0

    results = {}
    for name, workload in WORKLOADS.items():
        print(f"== {name}")
        results[name] = report(workload, args)
        print(json.dumps(results[name]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
