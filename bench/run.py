"""Benchmark runner: five batch workloads, end-to-end and per-layer.

One workload, time-bounded (prints one JSON result as its last line)::

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

All five workloads, interleaved over 15 rounds, written to a file::

    python3 bench/run.py --seed S --out FILE [--trace]

Reference values for the output check::

    python3 bench/run.py --write-reference --seed S

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds traced
repeats and reports the per-layer metrics instead.  Metric names, units,
directions and bounds come from ``BENCHMARK.json`` at the repository
root.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, TextIO

from check import failed_units, load_reference, normalise, write_reference
from layers import layer_metrics, layer_targets
from tracer import Tracer, TraceSummary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN = Path(__file__).resolve()

ROUNDS = 15
"""Interleaved mode: one repeat of every workload per round."""

ROUND_PROBES = 5
"""Interleaved mode: set-up probes per workload, spread over the rounds."""

TIMED_PROBES = 3
"""Time-bounded mode: set-up probes per run, spread over the window."""

PROBE_TIMEOUT_S = 120.0


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: metric name -> {unit, better, bound}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: {k: m[k] for k in ("unit", "better",
                                                     "bound")}
                       for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def bootstrap() -> Path:
    """Put ``src`` first on the path and keep temp files in the checkout.

    Returns this process's private work directory.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    return workdir


def cleanup(workdir: Path) -> None:
    for child in multiprocessing.active_children():
        child.join()
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


# --- one workload in this process ---------------------------------------------


class Runner:
    """One workload: prepared, warmed up, and checked on every repeat."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.state = self.workload.prepare(seed, workdir)
        warm = normalise(self.workload.outputs(
            self.state, self.workload.execute(self.state)))
        reference = load_reference(seed, name)
        self.verified = reference is not None
        self.expected = warm if reference is None else reference
        self.units = sum(units for units, _ in self.expected)
        self.tracer = Tracer(layer_targets(self.workload.boundaries))
        self.summary = TraceSummary()
        self.traced = 0
        self.attempted = 0
        self.failed = 0

    def repeat(self, traced: bool = False) -> dict[str, Any]:
        """One repeat (timed, optionally traced), checked afterwards."""
        workload = self.workload
        started = time.perf_counter()
        try:
            with self.tracer if traced else contextlib.nullcontext():
                raw = workload.execute(self.state)
            elapsed = time.perf_counter() - started
            failed = failed_units(
                normalise(workload.outputs(self.state, raw)), self.expected)
        except Exception:  # a failing repeat fails its units; keep going
            traceback.print_exc()
            elapsed = time.perf_counter() - started
            failed = self.units
        if traced:
            self.tracer.aggregate(self.summary)
            self.traced += 1
        self.attempted += self.units
        self.failed += failed
        return {"elapsed_s": elapsed, "units": self.units, "failed": failed}

    def finish(self) -> dict[str, Any]:
        """Totals, peak RSS of this process and its children, the trace."""
        for child in multiprocessing.active_children():
            child.join()
        rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"unit": self.workload.unit, "units": self.units,
                "verified": self.verified, "attempted": self.attempted,
                "failed": self.failed, "peak_rss_mb": rss_kib / 1024.0,
                "traced": self.traced,
                "summary": dataclasses.asdict(self.summary)}


class RemoteRunner:
    """A :class:`Runner` in a long-lived ``--serve`` process."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.process = subprocess.Popen(
            [sys.executable, str(RUN), "--serve", name, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._receive()

    def _receive(self) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} worker exited "
                               f"(code {self.process.wait()})")
        reply: dict[str, Any] = json.loads(line)
        return reply

    def _call(self, command: str) -> dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._receive()

    def repeat(self, traced: bool = False) -> dict[str, Any]:
        return self._call("traced" if traced else "repeat")

    def finish(self) -> dict[str, Any]:
        reply = self._call("finish")
        self.process.wait()
        return reply

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def serve(name: str, seed: int, workdir: Path, protocol: TextIO) -> None:
    """Worker loop: one JSON reply line per command line on stdin."""
    def send(reply: dict[str, Any]) -> None:
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()

    runner = Runner(name, seed, workdir)
    send({"ready": name})
    for line in sys.stdin:
        command = line.strip()
        if command == "finish":
            send(runner.finish())
            return
        if command not in ("repeat", "traced"):
            raise SystemExit(f"bench: unknown worker command {command!r}")
        send(runner.repeat(traced=command == "traced"))


# --- set-up probes --------------------------------------------------------------


def probe(name: str, seed: int) -> dict[str, float]:
    """Launch -> ``import repro`` -> inputs -> one minimal unit, fresh."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--probe", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{name} set-up probe exited {done.returncode}")
    times: dict[str, float] = json.loads(done.stdout.splitlines()[-1])
    return {"setup_s": wall, **times}


def run_probe(name: str, seed: int, workdir: Path) -> dict[str, float]:
    started = time.perf_counter()
    import repro  # noqa: F401
    imported = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[name].probe(seed, workdir)
    return {"import_s": imported - started,
            "first_unit_s": time.perf_counter() - imported}


# --- measurement schedules ------------------------------------------------------


@dataclasses.dataclass
class Measured:
    samples: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    probes: list[dict[str, float]] = dataclasses.field(default_factory=list)


def measure_timed(runner: Runner, name: str, seed: int, seconds: float,
                  trace: bool) -> Measured:
    """Repeat until ``seconds`` of repeats are timed, probes spread over
    the window; with ``trace``, half the window is traced repeats."""
    out = Measured()
    window = seconds / 2 if trace else seconds
    due = [window * (i + 0.5) / TIMED_PROBES for i in range(TIMED_PROBES)]
    timed = 0.0
    while timed < window:
        out.samples.append(runner.repeat())
        timed += out.samples[-1]["elapsed_s"]
        while due and timed >= due[0]:
            due.pop(0)
            out.probes.append(probe(name, seed))
    out.probes.extend(probe(name, seed) for _ in due)
    timed = 0.0
    while trace and timed < window:
        timed += runner.repeat(traced=True)["elapsed_s"]
    return out


def measure_rounds(runners: dict[str, RemoteRunner], seed: int,
                   trace: bool) -> dict[str, Measured]:
    """15 rounds, one repeat per workload each, order reversed on odd
    rounds; then one traced repeat per workload if ``trace``."""
    names = list(runners)
    out = {name: Measured() for name in names}
    probe_rounds = {int((i + 0.5) * ROUNDS / ROUND_PROBES)
                    for i in range(ROUND_PROBES)}
    for index in range(ROUNDS):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            out[name].samples.append(runners[name].repeat())
        if index in probe_rounds:
            for name in order:
                out[name].probes.append(probe(name, seed))
    for name in names if trace else ():
        runners[name].repeat(traced=True)
    return out


# --- results --------------------------------------------------------------------


def summarise(values: list[float], unit: str, better: str,
              bound: float) -> dict[str, Any]:
    median = statistics.median(values)
    q1, q3 = ((statistics.quantiles(values, n=4)[0::2])
              if len(values) > 1 else (median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "better": better, "bound": bound,
            "samples": values}


def workload_record(spec: dict[str, Any], info: dict[str, Any],
                    measured: Measured, trace: bool) -> dict[str, Any]:
    """One workload's result: e2e summaries, flags, and the trace."""
    values = {
        "units_per_s": [s["units"] / s["elapsed_s"]
                        for s in measured.samples],
        "peak_rss_mb": [info["peak_rss_mb"]],
        "setup_s": [p["setup_s"] for p in measured.probes],
    }
    metrics = {name: summarise(values[name], **m)
               for name, m in spec["end_to_end"].items()}
    record: dict[str, Any] = {
        "unit": info["unit"], "units_per_repeat": info["units"],
        "verified": info["verified"], "attempted": info["attempted"],
        "failed": info["failed"],
        "noisy": any(m["n"] > 1 and (m["q3"] - m["q1"]) / m["median"]
                     > m["bound"] for m in metrics.values()),
        "metrics": metrics,
    }
    if trace:
        summary = TraceSummary(**info["summary"])
        layers = layer_metrics(summary, info["traced"])
        layers["setup.import_s"] = statistics.median(
            p["import_s"] for p in measured.probes)
        layers["setup.first_unit_s"] = statistics.median(
            p["first_unit_s"] for p in measured.probes)
        traced_rate = info["units"] * info["traced"] / summary.wall_s
        layers["trace.overhead_ratio"] = (metrics["units_per_s"]["median"]
                                          / traced_rate)
        record["layers"] = {name: layers[name] for name in spec["per_layer"]}
        record["missing_targets"] = summary.missing
        record["units_traced"] = summary.units
        record["collapsed_s"] = dict(sorted(summary.collapsed.items()))
    return record


def header(seed: int, trace: bool, schedule: dict[str, Any]
           ) -> dict[str, Any]:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() if done.returncode == 0 else None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "trace": trace, **schedule}


def write_results(path: Path, document: dict[str, Any]) -> None:
    path.write_text(json.dumps(document, indent=1) + "\n")
    if document["header"]["trace"]:
        lines = [f"{name};{stack} {round(seconds * 1e6)}"
                 for name, record in document["workloads"].items()
                 for stack, seconds in record["collapsed_s"].items()]
        path.with_suffix(".folded").write_text("\n".join(lines) + "\n")


# --- modes ----------------------------------------------------------------------


def run_timed(args: argparse.Namespace, spec: dict[str, Any],
              workdir: Path, stdout: TextIO) -> None:
    trace = bool(args.trace)
    runner = Runner(args.workload, args.seed, workdir)
    measured = measure_timed(runner, args.workload, args.seed,
                             args.seconds, trace)
    record = workload_record(spec, runner.finish(), measured, trace)
    if args.out:
        write_results(Path(args.out), {
            "header": header(args.seed, trace, {"seconds": args.seconds}),
            "workloads": {args.workload: record}})
    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in spec["per_layer"].items()}
    else:
        metrics = {name: {"value": m["median"], "unit": m["unit"]}
                   for name, m in record["metrics"].items()}
    stdout.write(json.dumps({"correct": record["failed"] == 0,
                             "attempted": record["attempted"],
                             "failed": record["failed"],
                             "metrics": metrics}) + "\n")


def run_rounds(args: argparse.Namespace, spec: dict[str, Any]) -> None:
    trace = bool(args.trace)
    runners: dict[str, RemoteRunner] = {}
    try:
        for name in spec["workloads"]:
            runners[name] = RemoteRunner(name, args.seed)
        measured = measure_rounds(runners, args.seed, trace)
        infos = {name: runner.finish() for name, runner in runners.items()}
    finally:
        for runner in runners.values():
            runner.stop()
    write_results(Path(args.out), {
        "header": header(args.seed, trace,
                         {"rounds": ROUNDS,
                          "probes_per_workload": ROUND_PROBES}),
        "workloads": {name: workload_record(spec, infos[name],
                                            measured[name], trace)
                      for name in runners}})


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed repeats per --workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--write-reference", action="store_true",
                        help="write bench/reference/seed<SEED>.json")
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (args.workload or args.out or args.write_reference or args.serve
            or args.probe):
        parser.error("give --workload, --out or --write-reference")
    return args


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    spec = load_spec()
    for name in (args.workload, args.serve, args.probe):
        if name is not None and name not in spec["workloads"]:
            raise SystemExit(f"bench: unknown workload {name!r}; "
                             f"choose from {', '.join(spec['workloads'])}")
    workdir = bootstrap()
    # Anything the program prints goes to stderr: stdout carries results.
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        if args.probe:
            stdout.write(json.dumps(run_probe(args.probe, args.seed,
                                              workdir)) + "\n")
        elif args.serve:
            serve(args.serve, args.seed, workdir, stdout)
        elif args.write_reference:
            from workloads import WORKLOADS

            items = {}
            for name, workload in WORKLOADS.items():
                state = workload.prepare(args.seed, workdir)
                items[name] = normalise(workload.outputs(
                    state, workload.execute(state)))
            print(f"wrote {write_reference(args.seed, items)}")
        elif args.workload:
            run_timed(args, spec, workdir, stdout)
        else:
            run_rounds(args, spec)
    finally:
        sys.stdout = stdout
        cleanup(workdir)


if __name__ == "__main__":
    main()
