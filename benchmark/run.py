"""regsent benchmark: end-to-end runs of one workload, or one traced run per layer.

Run from the root of a checkout (the directory holding BENCHMARK.json and
src/regsent):

    python3 benchmark/run.py --workload posts-20k --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40 --trace 0

Each run generates the workload's inputs from --seed into .bench_work/, then
spawns fresh `python -m regsent` processes one at a time for --seconds:

  --trace 0  set-up samples (import regsent.cli + load_config) between
             `pipeline` runs and ten-process stage sequences; reports the
             end-to-end metrics of BENCHMARK.json as medians.
  --trace 1  untraced `pipeline` runs alternating with traced ones
             (traced_pipeline.py); reports the per-layer metrics of
             BENCHMARK.json as medians over the traced runs.

Timings are scaled to the reference host speed (see calibrate()). Every
run's artifacts are checked (checks.py) and counted in `attempted` and
`failed`. The last stdout line is the JSON result; the lines before it give
the environment, each metric with its unit and sample count, and the artifact
digest. Exits 2 without a result when there is no regsent source tree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import unicodedata
from pathlib import Path
from typing import Callable

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

STAGE_COMMANDS = (
    ("ingest",), ("clean",), ("report", "hashtags"), ("report", "emojis"), ("train",),
    ("classify",), ("aggregate",), ("shift-test",), ("regress",), ("stepwise",),
)
SETUP_CODE = "import sys, regsent.cli; regsent.cli.load_config(sys.argv[1])"
CHILD_TIMEOUT_S = 120
BLAS_THREADS = 1  # one BLAS thread per child: steadier timings than two on a shared 2-core host
# calibrate() on the reference host (a shared 2-vCPU VM, Python 3.11) at full
# speed. That host switches, for tens of seconds at a time, to a state in
# which calibrate() and regsent both run about 1.6x slower; timed samples are
# scaled by the calibrations around them so that medians do not depend on
# which state a run happened to meet.
CALIBRATION_REFERENCE_S = 0.0175


class Runner:
    """Spawns and verifies the child processes of one workload run.

    A context manager: it owns the launcher process that spawns and times
    every child (launcher.py says why).
    """

    def __init__(self, root: Path, work: Path, workload: workloads.Workload):
        self.root = root
        self.work = work
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.references: dict[tuple[str, ...], str] = {}  # excluded names -> artifact digest
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.stderr = work / "stderr.txt"
        self._launcher: subprocess.Popen | None = None

    def __enter__(self) -> "Runner":
        with self.stderr.open("wb") as err:
            self._launcher = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py")], env=self.env, cwd=self.root, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=CHILD_TIMEOUT_S)
        self._launcher.stdout.close()

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """(wall seconds from spawn to exit, ru_maxrss in KiB, exit code)."""
        self._launcher.stdin.write(json.dumps(argv) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._launcher.wait()}")
        result = json.loads(reply)
        return result["seconds"], result["maxrss_kib"], result["code"]

    def regsent(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "regsent", *args, "--config", str(self.workload.config)]

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)

    def verify(self, what: str, out: Path, code: int, exclude: tuple[str, ...] = ()) -> None:
        """Count one run; check its artifacts fully once, then by digest."""
        self.attempted += 1
        if code != 0:
            tail = self.stderr.read_text(encoding="utf-8", errors="replace")[-500:]
            return self.fail(what, [f"exit code {code}", tail.strip()])
        digest = checks.artifact_digest(out, exclude)
        reference = self.references.get(exclude)
        if reference is None:
            problems = checks.check_run(out, self.workload)
            if problems:
                return self.fail(what, problems)
            self.references[exclude] = digest
            # The stage sequence must reproduce the pipeline's bytes.
            self.references.setdefault(checks.PIPELINE_ONLY, checks.artifact_digest(out, checks.PIPELINE_ONLY))
        elif digest != reference:
            self.fail(what, [f"artifact digest {digest[:16]} differs from the first run's {reference[:16]}"])

    def fresh(self, name: str) -> Path:
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        return out

    def setup(self) -> float:
        elapsed, _, code = self.spawn([sys.executable, "-c", SETUP_CODE, str(self.workload.config)])
        self.attempted += 1
        if code != 0:
            self.fail("setup", [f"exit code {code}"])
        return elapsed

    def pipeline(self) -> tuple[float, int]:
        out = self.fresh("pipeline")
        elapsed, rss, code = self.spawn(self.regsent("pipeline", "--out", str(out)))
        self.verify("pipeline", out, code)
        return elapsed, rss

    def stages(self) -> float:
        out = self.fresh("stages")
        total, code = 0.0, 0
        for stage in STAGE_COMMANDS:
            elapsed, _, code = self.spawn(self.regsent(*stage, "--out", str(out)))
            total += elapsed
            if code != 0:
                break
        self.verify("stage sequence", out, code, checks.PIPELINE_ONLY)
        return total

    def traced(self, run_id: str) -> tuple[float, dict[str, float]]:
        out = self.fresh("traced")
        trace_file = self.work / "trace.json"
        argv = [sys.executable, str(HERE / "traced_pipeline.py"), str(trace_file), run_id,
                "pipeline", "--config", str(self.workload.config), "--out", str(out)]
        elapsed, _, code = self.spawn(argv)
        self.verify("traced pipeline", out, code)
        if code != 0:
            return elapsed, {}
        metrics = tracing.span_metrics(json.loads(trace_file.read_text(encoding="utf-8")))
        located = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))["located"]
        metrics["corpus.resolve_hit_ratio"] = tracing.resolve_hit_ratio(metrics, located)
        return elapsed, metrics

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python job of about 20 ms
    made of the kinds of work regsent's hot loops do (per-character class
    tests, Unicode normalization and case folding, dict counting, JSON);
    median of 5."""
    text = "Zażółć gęślą jaźń 123 #tag @user http://x.pl " * 4
    places = [f"Wola Żabia {i} Górna" for i in range(200)]
    times = []
    for _ in range(5):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for _ in range(1200):
            kept = sum(1 for ch in text if ch.isalpha() or ch.isspace())
            for word in text.split():
                counts[word] = counts.get(word, 0) + kept
        matched = sum(unicodedata.normalize("NFC", p).casefold().strip() == "wola żabia 7 górna" for p in places * 16)
        json.loads(json.dumps([{"id": i, "text": text, "n": matched} for i in range(300)]))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fill(deadline: float, steps: list[tuple[str, Callable[[], float]]]) -> dict[str, list[float]]:
    """Run the (name, step) list in turn, each step at least once, while the
    next step, judged by the last duration of that name, ends before deadline.

    Each step returns the wall seconds it measured. Returns them per name,
    scaled to the reference host speed: times CALIBRATION_REFERENCE_S over
    the mean of the calibrate() runs just before and just after the step.
    """
    samples: dict[str, list[float]] = {name: [] for name, _ in steps}
    measured: dict[str, list[float]] = {name: [] for name, _ in steps}
    last = {name: 0.0 for name, _ in steps}
    before = calibrate()
    for name, step in itertools.cycle(steps):
        if all(last.values()) and time.perf_counter() + last[name] > deadline:
            break
        start = time.perf_counter()
        seconds = step()
        after = calibrate()
        measured[name].append(seconds)
        samples[name].append(seconds * CALIBRATION_REFERENCE_S * 2 / (before + after))
        last[name] = time.perf_counter() - start
        before = after
    for name, values in measured.items():
        print(f"{name} wall seconds before scaling: " + " ".join(f"{v:.4g}" for v in values))
    return samples


def measure_end_to_end(runner: Runner, seconds: float, spec: dict) -> tuple[dict, dict]:
    rss: list[float] = []

    def one_pipeline() -> float:
        elapsed, maxrss = runner.pipeline()
        rss.append(maxrss / 1024)
        return elapsed

    # Set-up samples sit between the long runs, so that every metric sees the
    # same stretch of host load.
    samples = _fill(time.perf_counter() + seconds, [
        ("setup", runner.setup), ("pipeline", one_pipeline), ("setup", runner.setup), ("stages", runner.stages),
    ])
    pipeline = samples["pipeline"]
    pipeline_s = statistics.median(pipeline)
    return _select(spec["end_to_end"], {
        "pipeline_s": (pipeline_s, pipeline),
        "posts_per_s": (runner.workload.n_posts / pipeline_s, pipeline),
        "stages_s": (statistics.median(samples["stages"]), samples["stages"]),
        "peak_rss_mb": (statistics.median(rss), rss),
        "setup_s": (statistics.median(samples["setup"]), samples["setup"]),
    })


def measure_layers(runner: Runner, seconds: float, spec: dict) -> tuple[dict, dict]:
    runs: list[dict[str, float]] = []

    def one_traced() -> float:
        elapsed, metrics = runner.traced(f"{runner.workload.name}-{len(runs)}")
        if metrics:
            runs.append(metrics)
        return elapsed

    samples = _fill(time.perf_counter() + seconds, [
        ("untraced", lambda: runner.pipeline()[0]), ("traced", one_traced),
    ])
    names = [m["name"] for m in spec["per_layer"]]
    values = {name: (statistics.median(run.get(name, 0.0) for run in runs) if runs else 0.0, runs) for name in names}
    overhead = statistics.median(samples["traced"]) - statistics.median(samples["untraced"])
    values["trace.overhead_s"] = (overhead, samples["traced"])
    missing = [name for name in names if name != "trace.overhead_s" and any(name not in run for run in runs)]
    if missing:
        print(f"warning: no spans for {missing}; reported as 0", file=sys.stderr)
    return _select(spec["per_layer"], values)


def _select(declared: list[dict], values: dict) -> tuple[dict, dict]:
    """(metrics as the result reports them, name -> the samples behind each)."""
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared}
    samples = {m["name"]: values[m["name"]][1] for m in declared}
    return metrics, samples


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(runner: Runner, seed: int, scale: float) -> dict:
    probe = subprocess.run([sys.executable, str(HERE / "probe.py")], env=runner.env, cwd=runner.root,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"probe failed: {probe.stderr.strip()[-500:]}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(info["regsent_file"]).resolve().is_relative_to(runner.root / "src"):
        raise RuntimeError(f"children import regsent from {info['regsent_file']}, not this checkout")
    status = _git(runner.root, "status", "--porcelain", "--untracked-files=no")
    wl = runner.workload
    reference = REFERENCE[wl.name]
    inputs = wl.inputs_sha256()
    return {
        "git_commit": _git(runner.root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "blas_threads": info["blas_threads"],
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": seed,
        "scale": scale,
        "sizes": wl.sizes,
        "inputs_sha256": inputs,
        "inputs_match_reference": inputs == reference["sha256"] if (seed, scale) == (reference["seed"], 1.0) else None,
    }


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    work = root / ".bench_work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.generate(name, work / "inputs", seed, scale)
        with Runner(root, work, workload) as runner:
            print("environment: " + json.dumps(environment(runner, seed, scale), sort_keys=True))
            measure = measure_layers if trace else measure_end_to_end
            metrics, samples = measure(runner, seconds, spec)
        for metric, entry in metrics.items():
            shown = samples[metric]
            detail = "" if trace else " ".join(f"{v:.4g}" for v in shown)
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']} (median of {len(shown)}) {detail}".rstrip())
        print(f"{name} runs_failed = {runner.failed} of runs_attempted = {runner.attempted}")
        print(f"{name} artifact_digest = {runner.references.get((), 'none')}")
        return runner.result(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # .bench_work, unless another run still uses it
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workload (smoke tests only)")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "regsent" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("benchmark: run from the root of a regsent checkout (no src/regsent or BENCHMARK.json here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    sys.path.insert(0, str(root / "src"))  # posts-20k reuses regsent's own fixture writer

    chosen = names if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(root, spec, name, args.seed, args.seconds, bool(args.trace), args.scale)
        for name in chosen
    }
    print(json.dumps(results[chosen[0]] if args.workload != "all" else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
