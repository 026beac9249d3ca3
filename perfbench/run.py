"""Benchmark of the itco command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs (synthetic corpora, configs and, for eval, a trained
checkpoint) are generated from --seed before any timing starts. Then, for
S seconds, the workload's ``itco`` command runs again and again, each time
in a fresh single-threaded process (BLAS threads pinned to 1, one process
at a time), and every run's outputs are checked.

--trace 0 alternates full runs with set-up probes (runs stopped at their
first encoder call), fills the time left with more probes, and reports each
timing as the median of its fastest tenth of samples (peak memory as a
plain median): see `_fast`.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (machine, input hashes, every sample), which are also
written to .perfbench_work/results/. The failed ratio of the issue is
``failed / attempted``: a run fails when it exits non-zero or an output
check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_LAYERS
from workloads import WORKLOADS, InputError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0  # a whole benchmark run must end within 180 s
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

ENCODER = "model.EncoderParams.encode_node"  # reported by train/infer split, not as a span
SPANS = [layer for layer in SPAN_LAYERS if layer != ENCODER]
PER_LAYER = {
    **{f"{span}.{key}": unit for span in SPANS
       for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "trainer.save_checkpoint.bytes": "bytes",
    "model.encode_node.calls": "count",
    "model.encode_node.train_s": "s",
    "model.encode_node.infer_s": "s",
    "model.encode_node.windows": "count",
    "numerics.taped_primitives_per_minibatch": "count",
    "evaluation.encodes_per_window": "ratio",
    "corpus.windows_used_ratio": "ratio",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Runner:
    """Starts one child process at a time, each bounded by the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_THREADS)
        self.count = 0

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)

    def itco(self, argv: list) -> None:
        """Run an itco command outside any timing; raise if it fails."""
        proc = self._run([sys.executable, "-m", "itco.cli", *map(str, argv)])
        if proc.returncode != 0:
            raise InputError(f"itco {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")

    def child(self, argv: list[str], mode: str) -> dict:
        """Run one command under child.py; returns its measurements."""
        self.count += 1
        request = self.work / f"request-{self.count}.json"
        result = self.work / f"result-{self.count}.json"
        request.write_text(json.dumps(
            {"src": str(SRC), "argv": argv, "mode": mode, "result": str(result)}))
        proc = self._run([sys.executable, str(HERE / "child.py"), str(request)])
        if proc.returncode != 0 or not result.is_file():
            return {"exit_code": proc.returncode or 1, "traceback": proc.stderr[-2000:]}
        doc = json.loads(result.read_text(encoding="utf-8"))
        if not Path(doc["itco_file"]).resolve().is_relative_to(SRC.resolve()):
            doc.update(exit_code=1, traceback=f"itco imported from {doc['itco_file']}, not {SRC}")
        return doc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over the files under `root`."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "platform": platform.platform(),
        "pinned_threads": PINNED_THREADS,
    }


class Measurement:
    """Runs a workload's command and checks every run's outputs."""

    def __init__(self, workload, inputs: dict, runner: Runner, reference: dict):
        self.workload = workload
        self.inputs = inputs
        self.runner = runner
        self.reference = dict(reference)  # output name -> sha256 every run must repeat
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []
        self.corpus_hashes: dict = {}

    def run(self, mode: str) -> None:
        """One run of the command, kept in `samples`; a failed one also in `failures`."""
        self.attempted += 1
        out = self.runner.work / f"out-{self.attempted}"
        result = self.runner.child(self.workload.argv(self.inputs, out), mode)
        try:
            problems = []
            if result["exit_code"] != 0:
                problems.append(f"exit code {result['exit_code']}: {result.get('traceback', '')}")
            elif mode != "trace" and "setup_s" not in result:
                problems.append("the command never called the encoder")
            elif mode != "setup":
                problems += self.workload.check(self.inputs, out)
                problems += self._compare(out)
                result["windows"] = self.workload.windows(self.inputs, out)
                result["minibatches"] = self.workload.minibatches(out)
                manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
                self.corpus_hashes = {"corpus_hash": manifest["corpus_hash"]}
                if "dev_corpus_hash" in manifest["config"]:
                    self.corpus_hashes["dev_corpus_hash"] = manifest["config"]["dev_corpus_hash"]
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        result["mode"] = mode
        self.samples.append(result)
        if problems:
            self.failures.append(f"run {self.attempted} ({mode}): " + "; ".join(problems))

    def _compare(self, out: Path) -> list[str]:
        problems = []
        for name in self.workload.compared:
            digest = _sha256(out / name)
            expected = self.reference.setdefault(name, digest)
            if digest != expected:
                problems.append(f"{name} differs from an earlier run of the same code and seed")
        return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fast(values: list[float], higher_is_better: bool = False) -> float:
    """Median of the best tenth of `values` (at least one of them).

    On a shared host the CPU runs at two speeds as other tenants come and
    go, each held for seconds to minutes, the slow one up to 1.5 times
    slower. A plain median lands on whichever speed held most of a run, so
    it jumps from run to run. The best samples are the undisturbed speed,
    which a run of tens of seconds sees for a while; taking a tenth rather
    than the single best keeps one lucky sample from setting the result.
    """
    ranked = sorted(values, reverse=higher_is_better)
    return _median(ranked[:max(1, len(ranked) // 10)])


def measure(m: Measurement, seconds: float, modes: tuple[str, ...], filler: str = "") -> None:
    """Run the command once in each mode, in turn, until `seconds` are used,
    then fill the time left with `filler` runs. A run or round that would
    end past `seconds` is not started, but the first round always is."""
    stop = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        for mode in modes:
            m.run(mode)
        now = time.monotonic()
        if m.failures or now + (now - began) > stop:
            break
    last = 0.0
    while filler and not m.failures and time.monotonic() + last <= stop:
        began = time.monotonic()
        m.run(filler)
        last = time.monotonic() - began


def end_to_end_metrics(m: Measurement) -> dict:
    full = [s for s in m.samples if s["mode"] == "full" and "windows" in s]
    setups = [s["setup_s"] for s in m.samples if "setup_s" in s and s["exit_code"] == 0]
    values = {
        "setup_s": _fast(setups),
        "wall_s": _fast([s["wall_s"] for s in full]),
        "windows_per_s": _fast([s["windows"] / (s["wall_s"] - s["setup_s"]) for s in full],
                               higher_is_better=True),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in full]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_values(sample: dict, labeled_windows: int) -> dict:
    """Per-layer metrics of one traced run; `labeled_windows` is 0 unless the
    command labels frames."""
    trace = sample["trace"]
    values = {}
    for span in SPANS:
        stats = trace["spans"].get(span, {})
        for key in ("calls", "s", "self_s"):
            values[f"{span}.{key}"] = stats.get(key, 0)
    encode = trace["encode"]
    values.update({
        "trainer.save_checkpoint.bytes": trace["checkpoint_bytes"],
        "model.encode_node.calls": trace["spans"].get("model.encode_node", {}).get("calls", 0),
        "model.encode_node.train_s": encode["train_s"],
        "model.encode_node.infer_s": encode["infer_s"],
        "model.encode_node.windows": encode["windows"],
        "numerics.taped_primitives_per_minibatch":
            trace["taped_primitives"] / sample["minibatches"] if sample.get("minibatches") else 0,
        "evaluation.encodes_per_window":
            encode["infer_windows"] / labeled_windows if labeled_windows else 0,
        "corpus.windows_used_ratio":
            trace["windows_used"] / trace["windows_built"] if trace["windows_built"] else 0,
        "cli.import_s": trace["import_s"],
        "trace.wall_s": trace["wall_s"],
        "trace.unattributed_s": trace["unattributed_s"],
    })
    return values


def per_layer_metrics(m: Measurement) -> dict:
    traced = [s for s in m.samples if s["mode"] == "trace" and "windows" in s]
    untraced = [s["wall_s"] for s in m.samples if s["mode"] == "full" and "windows" in s]
    rows = [layer_values(s, s["windows"] if m.workload.labels_frames else 0) for s in traced]
    values = {name: _median([row[name] for row in rows]) for name in rows[0]} if rows else {}
    if untraced and traced:
        values["trace.overhead_ratio"] = (
            _fast([s["wall_s"] for s in traced]) / _fast(untraced) - 1.0
        )
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def digest_path(workload: str, seed: int, tiny: bool, source: str, bench: str) -> Path:
    """Where the output digests of one program source, benchmark and seed are
    kept: the 'same code and seed' of every comparison. The benchmark's own
    files are part of the key because they define the inputs."""
    scale = "-tiny" if tiny else ""
    return WORK / "digests" / f"{workload}{scale}-s{seed}-{source[:16]}-{bench[:16]}.json"


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through subprocess.run, which kills the child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "itco" / "cli.py").is_file():
        print(f"error: no itco source under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _on_sigterm)
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    source, bench = tree_digest(SRC), tree_digest(HERE)
    digests = digest_path(args.workload, args.seed, args.tiny, source, bench)
    reference = json.loads(digests.read_text()) if digests.is_file() else {}
    work = WORK / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started + TIME_LIMIT_S)
    try:
        try:
            inputs = workload.prepare(runner.itco, work, args.seed, args.tiny)
        except (InputError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            print(f"error: preparing inputs failed: {exc}", file=sys.stderr)
            return 1
        m = Measurement(workload, inputs, runner, reference)
        try:
            if args.trace:
                measure(m, args.seconds, ("full", "trace"))
            else:
                # set-up runs are short and noisy, so spare time goes to more of them
                measure(m, args.seconds, ("full", "setup"), filler="setup")
        except subprocess.TimeoutExpired:
            m.failures.append("a run did not finish before the benchmark's time limit")
        metrics = per_layer_metrics(m) if args.trace else end_to_end_metrics(m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any("windows" in s for s in m.samples):
        print("error: no run of the command succeeded: " + " | ".join(m.failures), file=sys.stderr)
        return 1
    if not m.failures and not reference:
        digests.parent.mkdir(parents=True, exist_ok=True)
        digests.write_text(json.dumps(m.reference, sort_keys=True))

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": dict(machine(), source_sha256=source, benchmark_sha256=bench),
        "inputs": inputs,
        "input_corpus_hashes": m.corpus_hashes,
        "output_sha256": m.reference,
        "failed_ratio": len(m.failures) / m.attempted,
        "failures": m.failures,
        "samples": [{k: v for k, v in s.items() if k != "trace"} for s in m.samples],
        "benchmark_s": time.monotonic() - started,
    }
    if args.trace:
        details["traces"] = [s["trace"] for s in m.samples if "trace" in s]
    result = {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
