"""Runs one workload in a fresh process and reports raw measurements.

    python3 bench/worker.py --workload NAME --inputs FILE --result FILE
                            --mode setup|rss|main [--reference]
                            [--seconds S] [--trace]

``setup`` times the import of cycle4 plus one warm-up call (of the frozen
reference copy with ``--reference``) and stops.  ``rss`` does the same set-up
and one round of the program alone, and reports its peak RSS.  ``main``
loads the program and the reference, warms both, then repeats whole rounds
until ``--seconds`` of wall time have passed.  In a round every operation
runs once on the program and once on the reference, back to back, in an
order that alternates, so both see the same machine speed (README.md,
"Reference copy").  Every round must reproduce the first round's output
exactly; the program's first-round output goes to the result file for the
oracle checks in ``run.py``, which this process never imports.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"  # holds cycle4ref, the frozen copy of src/cycle4

perf = time.perf_counter


def child_env(reference: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REFERENCE if reference else SRC),
                                                      env.get("PYTHONPATH")]))
    return env


class McSample:
    """``cycle4 sample N SEED OUT`` called in process, once per seed a round."""

    entry = "cli"

    def __init__(self, inputs, work: Path):
        self.n, self.seeds = inputs["n"], inputs["seeds"]
        self.work = work
        self.ops = len(self.seeds)
        self.items = self.n * self.ops

    def warm_up(self, pkg, reference: bool) -> None:
        self._call(pkg, 64, self.seeds[0], self.work / f"sample-warm-{int(reference)}.csv")

    @staticmethod
    def _call(pkg, n, seed, path) -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = pkg.cli.main(["sample", str(n), str(seed), str(path)])
        return code, sink.getvalue()

    def op(self, pkg, k: int, index: int, reference: bool, tracer):
        path = self.work / ("sample-ref.csv" if reference else f"sample-{k}-{min(index, 1)}.csv")
        code, stdout = self._call(pkg, self.n, self.seeds[k], path)
        return {"exit": code, "stdout": stdout, "csv": str(path)}

    def same(self, first, later) -> bool:
        return all(
            a["exit"] == b["exit"]
            and a["stdout"] == b["stdout"]
            and Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()
            for a, b in zip(first, later)
        )


class Realize:
    """Each target through ``realize``, ``realize_via_criterion`` and
    ``spectrum`` of every matrix they return."""

    entry = ""

    def __init__(self, inputs, work: Path):
        self.targets = [complex(re, im) for re, im in inputs["targets"]]
        self.items = self.ops = len(self.targets)

    def warm_up(self, pkg, reference: bool) -> None:
        self._point(pkg, complex(0.2, 0.3))

    @staticmethod
    def _point(pkg, lam: complex) -> dict:
        record = {}
        for route, build in (("realize", pkg.synthesis.realize),
                             ("criterion", pkg.synthesis.realize_via_criterion)):
            try:
                found = build(lam)
            except Exception as exc:  # every failure is classified by run.py
                record[route] = {"error": type(exc).__name__, "message": str(exc)}
                continue
            out = {"alpha": list(found.matrix.alpha), "method": found.method.value,
                   "residual": found.residual}
            try:
                eigs = pkg.matrix.spectrum(found.matrix)
                out["spectrum"] = [[z.real, z.imag] for z in eigs]
            except Exception as exc:
                out["spectrum_error"] = {"error": type(exc).__name__, "message": str(exc)}
            record[route] = out
        return record

    def op(self, pkg, k: int, index: int, reference: bool, tracer):
        if tracer is not None and not reference:
            tracer.request = k
        return self._point(pkg, self.targets[k])

    def same(self, first, later) -> bool:
        return first == later


class ColdCli:
    """Fresh ``python -m cycle4.cli`` processes, one at a time; the
    reference's children run ``python -m cycle4ref.cli`` on their own files."""

    entry = "cli"

    def __init__(self, inputs, work: Path):
        self.commands = inputs["commands"]
        self.ref_commands = inputs["ref_commands"]
        self.files = inputs["files"]
        self.items = self.ops = len(self.commands)
        self.work = work
        self.child_summaries: list = []
        self.child_imports: list = []

    def warm_up(self, pkg, reference: bool) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            pkg.cli.main(self.commands[0])

    def _argv(self, args, tracer, k, reference):
        if reference:
            return [sys.executable, "-m", "cycle4ref.cli", *args]
        if tracer is None:
            return [sys.executable, "-m", "cycle4.cli", *args]
        summary = self.work / f"child-{k}.json"
        return [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"), str(summary), *args]

    def op(self, pkg, k: int, index: int, reference: bool, tracer):
        args = (self.ref_commands if reference else self.commands)[k]
        proc = subprocess.run(self._argv(args, tracer, k, reference), cwd=ROOT, env=child_env(reference),
                              capture_output=True, text=True, timeout=120)
        if reference:
            return None
        record = {"args": args, "exit": proc.returncode, "stdout": proc.stdout,
                  "stderr": "" if tracer is not None else proc.stderr}
        for key in self.files.get(str(k), []):
            record.setdefault("files", {})[key] = Path(ROOT / key).read_text(encoding="utf-8")
        if tracer is not None:
            summary = self.work / f"child-{k}.json"
            self._collect(args, proc.stderr, summary)
            summary.with_suffix(".spans.jsonl").replace(self.work.parent / f"spans-cli_cold-{k}.jsonl")
        return record

    def _collect(self, args, stderr: str, summary_path: Path) -> None:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        self.child_summaries.append(summary["trace"])
        self.child_imports.append({"command": args[0], "import_s": summary["import_s"],
                                   "numpy_import_s": numpy_import_seconds(stderr)})

    def same(self, first, later) -> bool:
        return first == later


def numpy_import_seconds(importtime_log: str) -> float:
    """Cumulative ``import numpy`` time from ``-X importtime`` output, 0 if absent."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy" and line.startswith("import time:"):
            return int(parts[1]) * 1e-6
    return 0.0


WORKLOADS = {"mc_sample": McSample, "grid_realize": Realize, "near_axis": Realize, "cli_cold": ColdCli}


def import_package(entry: str, reference: bool):
    """Imports cycle4 (or its frozen copy cycle4ref) and the workload's entry module."""
    root, name = (REFERENCE, "cycle4ref") if reference else (SRC, "cycle4")
    sys.path.insert(0, str(root))
    importlib.import_module(f"{name}.{entry}" if entry else name)
    pkg = sys.modules[name]
    origin = Path(pkg.__file__).resolve()
    if root.resolve() not in origin.parents:
        raise SystemExit(f"imported {name} from {origin}, not from {root}")
    return pkg


MODULES = ("cycle4", "cycle4.sampling", "cycle4.region", "cycle4.synthesis", "cycle4.criterion",
           "cycle4.matrix", "cycle4.scalar", "cycle4.identities", "cycle4.figure", "cycle4.cli")


def loaded_modules() -> list:
    """The package namespaces this process has imported; others stay unloaded."""
    return [sys.modules[name] for name in MODULES if name in sys.modules]


def run_round(workload, live, ref, index: int, tracer):
    """One round: every operation on the program, and on the reference when
    it is loaded, the two back to back with the first one alternating."""
    records, live_s, ref_s = [], [], []
    for k in range(workload.ops):
        sides = [(live, False), (ref, True)]
        if (k + index) % 2:
            sides.reverse()
        for pkg, reference in sides:
            if pkg is None:
                continue
            start = perf()
            record = workload.op(pkg, k, index, reference, tracer)
            took = perf() - start
            if reference:
                ref_s.append(took)
            else:
                records.append(record)
                live_s.append(took)
    return records, live_s, ref_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "rss", "main"))
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    work = Path(args.result).parent
    workload = WORKLOADS[args.workload](inputs, work)

    start = perf()
    pkg = import_package(workload.entry, args.reference)
    import_s = perf() - start
    workload.warm_up(pkg, args.reference)
    result = {"setup_s": perf() - start, "import_s": import_s}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    if args.mode == "rss":
        run_round(workload, pkg, None, 0, None)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    ref = import_package(workload.entry, reference=True)
    workload.warm_up(ref, reference=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload != "cli_cold":  # cold children install their own, in traced_cli.py
            tracer.install(loaded_modules())

    first = None
    mismatched = 0
    op_s, ref_s = [], []  # per round, the wall time of each operation in it
    start = perf()
    while perf() - start < args.seconds or not op_s:
        output, live_times, ref_times = run_round(workload, pkg, ref, len(op_s), tracer)
        op_s.append(live_times)
        ref_s.append(ref_times)
        if first is None:
            first = output
        elif not workload.same(first, output):
            mismatched += 1

    if tracer is not None:
        tracer.uninstall()
        if args.workload == "cli_cold":
            result["trace"] = merge(workload.child_summaries)
            result["child_imports"] = workload.child_imports
        else:
            result["trace"] = tracer.summary()
            tracer.dump_spans(work.parent / f"spans-{args.workload}.jsonl")

    result.update(
        rounds=len(op_s),
        items_per_round=workload.items,
        op_s=op_s,
        ref_s=ref_s,
        mismatched_rounds=mismatched,
        output=first,
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
