"""cycle4 benchmark: four workloads, oracle-checked, with a traced variant.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, times set-up in fresh
processes, runs the workload in a fresh worker process (``worker.py``)
beside ``reference/cycle4ref``, a frozen copy of cycle4 that the times are
measured against, and checks the first round's output against the oracles
in ``oracles.py``, which share no code with cycle4.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Exits 1 if a check fails or a failure maps to no known
fault, 2 if the checkout holds no cycle4 source.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracles
from worker import numpy_import_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("mc_sample", "grid_realize", "near_axis", "cli_cold")

SETUP_PAIRS = 6  # set-up-only processes of the program, and as many of the reference
SAMPLE_N = 2_000  # matrices per sample call
SAMPLE_CALLS = 5  # sample calls per round, each with its own seed
MC_TOL = 1e-6  # eigenvalue distance to the dense oracle for seeded matrices
SAMPLE_HEADER = "index,alpha1,alpha2,alpha3,alpha4,re,im,status"
BAND = 1e-9  # cycle4's default boundary band
NECESSITY_BAND = 1e-7

FAULTS = {
    1: "realize_via_criterion raises NotRealizable on left-curve points inside the "
       "boundary band: solve_criterion tests g < 0 strictly, membership applies the band",
    2: "near the real axis the realizing weight 1 - t collapses onto 1 because "
       "CycleMatrix4 stores alpha, not the hop weight t",
    3: "the absolute-defect certificate accepts a realize() matrix whose nearest true "
       "eigenvalue is farther than b/100 from the target",
    4: "matrix.spectrum solves the coefficient-form quartic and misses clustered "
       "eigenvalues by more than b/100",
}


# ---------------------------------------------------------------- inputs


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def grid_targets(seed: int) -> list[tuple[float, float]]:
    """The 60x60 interior grid, 399 right-segment and 399 left-curve points
    traced here, and 162 seeded interior points, in a seeded order."""
    grid = [(i / 60, (j + 1) / 60) for i in range(60) for j in range(60)]
    a, b = np.array(grid).T
    inside = (1.0 - a - b > BAND) & (oracles.left_form(a, b) > BAND) & (a >= 0.0)
    targets = [p for p, ok in zip(grid, inside) if ok]
    n = 400
    targets += [(1.0 - j / (n - 1), j / (n - 1)) for j in range(1, n)]
    top = 1.0 - 1.0 / n
    for j in range(1, n):
        z = oracles.left_curve_point(top * j / (n - 1))
        targets.append((z.real, z.imag))
    gen = rng(seed)
    seeded = []
    while len(seeded) < 162:
        re, im = gen.random(2)
        if oracles.strictly_inside(re, im, 1e-3) and im >= 1e-2:
            seeded.append((float(re), float(im)))
    targets += seeded
    return [targets[k] for k in gen.permutation(len(targets))]


def near_axis_targets(seed: int) -> list[tuple[float, float]]:
    """a = i/20 on every rung b = 1e-2 ... 1e-9, plus 19 seeded a values on
    each of the rungs 1e-2 and 1e-3, in a seeded order."""
    rungs = [10.0 ** -k for k in range(2, 10)]
    targets = [(i / 20, b) for b in rungs for i in range(1, 20)]
    gen = rng(seed)
    for b in rungs[:2]:
        targets += [(float(a), b) for a in gen.uniform(0.02, 0.98, 19)]
    return [targets[k] for k in gen.permutation(len(targets))]


def cli_commands(seed: int, work: Path) -> tuple[list[list[str]], list[list[str]], dict]:
    gen = rng(seed)
    while True:
        re, im = (float(v) for v in gen.random(2))
        if oracles.strictly_inside(re, im, 2e-2) and im >= 5e-2:
            break
    alpha = [repr(float(v)) for v in gen.uniform(0.0, 0.95, 4)]
    csv_path = (work / "trace.csv").relative_to(ROOT).as_posix()
    svg_path = (work / "trace.svg").relative_to(ROOT).as_posix()
    point = [repr(re), repr(im)]
    commands = [
        ["check", *point],
        ["realize", *point],
        ["realize", *point, "--method=criterion"],
        ["spectrum", *alpha],
        ["psi", *point],
        ["verify"],
        ["trace", "region", "400", csv_path, "--svg", svg_path],
    ]
    ref_commands = [[arg.replace("trace.", "ref-trace.") for arg in args] for args in commands]
    return commands, ref_commands, {"6": [csv_path, svg_path]}


def build_inputs(workload: str, seed: int, work: Path) -> dict:
    if workload == "mc_sample":
        return {"n": SAMPLE_N, "seeds": [(seed * SAMPLE_CALLS + k) % 2**32 for k in range(SAMPLE_CALLS)]}
    if workload == "grid_realize":
        return {"targets": grid_targets(seed)}
    if workload == "near_axis":
        return {"targets": near_axis_targets(seed)}
    commands, ref_commands, files = cli_commands(seed, work)
    return {"commands": commands, "ref_commands": ref_commands, "files": files}


# ---------------------------------------------------------------- workers


class BenchError(RuntimeError):
    """The benchmark could not measure (a worker crashed or timed out)."""


def run_worker(workload, work: Path, tag: str, mode: str, seconds: float = 0.0, trace=False,
               reference=False) -> dict:
    result = work / f"result-{tag}.json"
    argv = [sys.executable]
    if trace:
        argv += ["-X", "importtime"]
    argv += [str(BENCH / "worker.py"), "--workload", workload, "--inputs", str(work / "inputs.json"),
             "--result", str(result), "--mode", mode, "--seconds", repr(seconds)]
    if trace:
        argv.append("--trace")
    if reference:
        argv.append("--reference")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=4 * seconds + 90)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    data["stderr"] = proc.stderr
    return data


# ---------------------------------------------------------------- checks


class Ledger:
    """Operations attempted and failed in one round, failures by kind and fault."""

    def __init__(self):
        self.attempted = 0
        self.kinds: Counter = Counter()  # (kind, fault or None) -> count
        self.examples: dict[tuple, str] = {}

    def op(self, kind: str | None = None, fault: int | None = None, detail: str = "") -> None:
        self.attempted += 1
        if kind is not None:
            self.kinds[kind, fault] += 1
            self.examples.setdefault((kind, fault), detail)

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    @property
    def unmapped(self) -> list[str]:
        return [kind for kind, fault in self.kinds if fault is None]


def fault_for(kind: str, b: float, on_left_curve: bool) -> int | None:
    """Which known fault explains a failure; None if none does."""
    op, _, what = kind.partition(":")
    if op == "criterion" and what == "NotRealizable" and on_left_curve:
        return 1
    if op in ("realize", "criterion") and b <= 2e-6 and what in (
            "NoConvergence", "AlphaOutOfRange", "ParameterOutOfRange"):
        return 2
    if op == "criterion" and what == "target_miss" and b <= 2e-6:
        return 2
    if op == "realize" and what == "target_miss" and b <= 2e-5:
        return 3
    if op == "spectrum" and what in ("oracle_miss", "SpectrumFailure") and b <= 2e-4:
        return 4
    return None


def check_mc_sample(n: int, seed: int, output: dict, ledger: Ledger) -> None:
    if output["exit"] != 0:
        ledger.op("sample:exit", None, f"exit code {output['exit']}")
        return
    with open(output["csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != 4 * n + 1 or ",".join(rows[0]) != SAMPLE_HEADER:
        ledger.op("sample:layout", None, f"{len(rows)} lines, header {rows[0]}")
        return
    body = rows[1:]
    index = np.array([int(r[0]) for r in body]).reshape(n, 4)
    nums = np.array([[float(v) for v in r[1:7]] for r in body]).reshape(n, 4, 6)
    status = np.array([r[7] for r in body]).reshape(n, 4)
    alphas = nums[:, 0, :4]
    eigs = nums[:, :, 4] + 1j * nums[:, :, 5]

    bad = {}
    bad["index"] = (index != np.arange(n)[:, None]).any(axis=1)
    bad["alpha_columns"] = (nums[:, :, :4] != alphas[:, None, :]).any(axis=(1, 2)) | (
        alphas != rng(seed).random((n, 4))).any(axis=1)
    bad["oracle_miss"] = oracles.match_distance(eigs, oracles.dense_eigvals(alphas)) > MC_TOL
    bad["no_unit_root"] = np.abs(eigs - 1.0).min(axis=1) > MC_TOL
    bad["modulus"] = (np.abs(eigs) > 1.0 + 1e-9).any(axis=1)
    bad["conjugation"] = oracles.match_distance(eigs, eigs.conj()) > 1e-7
    bad["outside_region"] = ~oracles.in_region(eigs.real, eigs.imag, NECESSITY_BAND).all(axis=1)
    bad["status_column"] = ~np.isin(status, ["InsideNonreal", "InsideRealInterval", "BoundaryCR",
                                             "BoundaryCL", "BoundaryRealEndpoint", "Outside"]).all(axis=1)
    any_bad = np.logical_or.reduce(list(bad.values()))
    for i in range(n):
        if any_bad[i]:
            names = [name for name, rows_bad in bad.items() if rows_bad[i]]
            ledger.op("sample:" + names[0], None, f"row {i}: {', '.join(names)}")
        else:
            ledger.op()
    counts = dict(part.split("=") for part in output["stdout"].split()[1:])
    if sum(int(v) for v in counts.values()) != 4 * n:
        ledger.op("sample:verdict_counts", None, output["stdout"].strip())


def realize_oracle(workload: str, alpha_list: list[tuple]) -> dict:
    """Oracle eigenvalues per distinct matrix: LAPACK on the grid, 60-digit
    product-form roots near the axis."""
    distinct = sorted(set(alpha_list))
    if not distinct:
        return {}
    if workload == "near_axis":
        return {a: np.array(oracles.product_form_roots(a)) for a in distinct}
    eigs = oracles.dense_eigvals(np.array(distinct))
    return dict(zip(distinct, eigs))


def check_realize(workload: str, inputs: dict, output: list, ledger: Ledger) -> None:
    targets = [complex(re, im) for re, im in inputs["targets"]]
    alphas = [tuple(rec[r]["alpha"]) for rec in output for r in ("realize", "criterion")
              if "alpha" in rec[r]]
    oracle = realize_oracle(workload, alphas)
    for lam, rec in zip(targets, output):
        b = abs(lam.imag)
        on_curve = abs(oracles.left_form(lam.real, b)) <= BAND and abs(1.0 - lam.real - b) > BAND
        where = f"target {lam!r}"

        def fail(kind, detail):
            ledger.op(kind, fault_for(kind, b, on_curve), f"{where}: {detail}")

        for route in ("realize", "criterion"):
            got = rec[route]
            if "error" in got:
                fail(f"{route}:{got['error']}", got["message"])
                continue
            alpha = tuple(got["alpha"])
            eigs = oracle[alpha]
            if not all(0.0 <= a < 1.0 for a in alpha):
                fail(f"{route}:alpha_range", f"alpha {alpha}")
            elif np.abs(eigs - lam).min() > b / 100:
                fail(f"{route}:target_miss", f"alpha {alpha}, oracle gap {np.abs(eigs - lam).min():.3g}")
            else:
                ledger.op()
            if "spectrum_error" in got:
                fail(f"spectrum:{got['spectrum_error']['error']}", got["spectrum_error"]["message"])
                continue
            spec = np.array([complex(re, im) for re, im in got["spectrum"]])
            gap = float(oracles.match_distance(spec, eigs)[0])
            if gap > b / 100:
                fail("spectrum:oracle_miss", f"{route} matrix {alpha}, spectrum gap {gap:.3g}")
            else:
                ledger.op()


def check_cli(output: list, ledger: Ledger) -> None:
    for rec in output:
        command = rec["args"][0]
        try:
            problem = cli_problem(rec)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            ledger.op(f"cli:{command}", None, problem)
        else:
            ledger.op()


def cli_problem(rec: dict) -> str | None:
    """What is wrong with one cold command's output, or None."""
    args, out = rec["args"], rec["stdout"]
    if rec["exit"] != 0:
        return f"exit {rec['exit']}: {rec['stderr'][-300:]}"
    command = args[0]
    if command in ("check", "realize", "psi"):
        lam = complex(float(args[1]), float(args[2]))
        payload = json.loads(out)
    if command == "check":
        form = oracles.left_form(lam.real, lam.imag)
        if payload["status"] != "InsideNonreal" or payload["a_check"] != lam.real:
            return f"verdict {payload}"
        if abs(payload["right_check"] - (1 - lam.real - lam.imag)) > 1e-15 or abs(payload["g_check"] - form) > 1e-12:
            return f"constraint values {payload}"
    elif command == "realize":
        alpha = payload["alpha"]
        eigs = oracles.dense_eigvals(alpha)[0]
        if not all(0.0 <= a < 1.0 for a in alpha) or np.abs(eigs - lam).min() > lam.imag / 100:
            return f"realizing matrix {alpha} misses {lam}"
    elif command == "psi":
        lower, upper = math.atan2(lam.imag, lam.real), math.atan2(lam.imag, lam.real - 1.0)
        regime = "Tight" if 3 * lower + upper > 2 * math.pi else "Unbounded"
        if abs(payload["m"] - lower) > 1e-12 or abs(payload["M"] - upper) > 1e-12 or payload["regime"] != regime:
            return f"criterion diagnostics {payload}"
    elif command == "spectrum":
        payload = json.loads(out)
        alpha = [float(a) for a in args[1:5]]
        spec = np.array([complex(re, im) for re, im in payload["eigenvalues"]])
        gap = float(oracles.match_distance(spec, oracles.dense_eigvals(alpha))[0])
        if payload["alpha"] != alpha or gap > MC_TOL:
            return f"spectrum gap {gap:.3g}"
    elif command == "verify":
        lines = out.strip().splitlines()
        total = len(lines) - 1
        if total < 1 or lines[-1] != f"identities: {total}/{total} zero":
            return f"identity suite: {lines[-1] if lines else 'no output'}"
    elif command == "trace":
        return trace_problem(rec["files"], int(args[2]))
    return None


def trace_problem(files: dict, n: int) -> str | None:
    csv_text, svg_text = (files[key] for key in sorted(files, key=lambda k: not k.endswith(".csv")))
    rows = [line.split(",") for line in csv_text.splitlines()]
    if rows[0] != ["curve", "param", "re", "im", "G"]:
        return f"trace header {rows[0]}"
    by_curve = Counter(r[0] for r in rows[1:])
    if by_curve != Counter({"CR": n, "CL": n, "real": 2}):
        return f"trace rows {dict(by_curve)}"
    for curve, _, re, im, g in rows[1:]:
        a, b, g = float(re), float(im), float(g)
        if curve == "CR" and (abs(a + b - 1.0) > 1e-15 or abs(g - oracles.left_form(a, b)) > 1e-12):
            return f"right-segment row {re},{im},{g}"
        if curve == "CL" and (abs(oracles.left_form(a, b)) > BAND or not -BAND <= a <= 1 / 6 + BAND):
            return f"left-curve row {re},{im},{g}"
    if not (svg_text.startswith("<svg") and svg_text.endswith("</svg>\n")):
        return "svg envelope"
    if svg_text.count(" L ") != 4 * n - 1:
        return f"svg outline has {svg_text.count(' L ') + 1} points, want {4 * n}"
    return None


def check(workload: str, inputs: dict, result: dict) -> Ledger:
    ledger = Ledger()
    output = result["output"]
    if workload == "mc_sample":
        for seed, call in zip(inputs["seeds"], output):
            check_mc_sample(inputs["n"], seed, call, ledger)
    elif workload == "cli_cold":
        check_cli(output, ledger)
    else:
        check_realize(workload, inputs, output, ledger)
    if result["mismatched_rounds"]:
        ledger.op("determinism", None, f"{result['mismatched_rounds']} rounds differ from the first")
    return ledger


# ---------------------------------------------------------------- metrics


# The frozen reference's throughput and set-up time at the nominal machine
# speed, rounded from single runs (seed 7, 15 s) on a 2-vCPU Xeon (Sapphire
# Rapids) KVM guest when the reference was frozen.  They only fix the unit of
# the metrics and are never re-measured; README.md, "Reference copy".
REFERENCE_ITEMS_PER_S = {"mc_sample": 26_000.0, "grid_realize": 1_800.0, "near_axis": 1_200.0, "cli_cold": 4.0}
REFERENCE_SETUP_S = {"mc_sample": 0.18, "grid_realize": 0.03, "near_axis": 0.04, "cli_cold": 0.15}


def slowdown(result: dict) -> float:
    """The program's time over the reference's, on the same operations run
    back to back in the same process: per operation, the median over the
    rounds of the ratio of its two times, weighted by the operation's
    median time on the reference.  Pairing cancels the host's speed, which
    both sides of a pair share; the median keeps one slow round, or a slow
    child process, from moving the figure."""
    weights = [statistics.median(times) for times in zip(*result["ref_s"])]
    ratios = [statistics.median(live / ref for live, ref in zip(lives, refs))
              for lives, refs in zip(zip(*result["op_s"]), zip(*result["ref_s"]))]
    return sum(w * r for w, r in zip(weights, ratios)) / sum(weights)


def items_per_s(workload: str, result: dict) -> float:
    """The program's throughput at the speed where the reference makes
    REFERENCE_ITEMS_PER_S."""
    return REFERENCE_ITEMS_PER_S[workload] / slowdown(result)


def raw_items_per_s(result: dict, key: str = "op_s") -> float:
    """Wall-clock throughput, unnormalised, of the program or (``ref_s``) the reference."""
    return result["items_per_round"] * len(result[key]) / sum(map(sum, result[key]))


def setup_s(workload: str, live: list[float], ref: list[float]) -> float:
    """The program's set-up time at the speed where the reference's takes REFERENCE_SETUP_S."""
    return REFERENCE_SETUP_S[workload] * statistics.median(live) / statistics.median(ref)


def end_to_end(workload: str, result: dict, setups: tuple[list, list], rss: dict) -> dict:
    return {
        "setup_s": (setup_s(workload, *setups), "s"),
        "items_per_s": (items_per_s(workload, result), "1/s"),
        "peak_rss_mb": (rss["peak_rss_kb"] / 1024.0, "MB"),
    }


LAYERS = ("sampling", "region", "synthesis", "criterion", "matrix", "scalar", "identities", "figure", "cli")
CLI_COMMANDS = ("check", "realize", "spectrum", "psi", "verify", "trace")


def per_layer(traced: dict, plain: dict) -> dict:
    trace = traced["trace"]
    funcs, sites, rounds = trace["functions"], trace["sites"], traced["rounds"]
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def fn(name):
        return funcs.get(name, zero)

    def per_call(name, scale):
        rec = fn(name)
        return scale * rec["incl_s"] / rec["calls"] if rec["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    if "child_imports" in traced:
        imports = traced["child_imports"]
        import_ms = 1e3 * statistics.median(c["import_s"] for c in imports)
        numpy_ms = 1e3 * statistics.median(c["numpy_import_s"] for c in imports)
    else:
        import_ms = 1e3 * traced["import_s"]
        numpy_ms = 1e3 * numpy_import_seconds(traced["stderr"])

    m = {
        "sampling.sample_parameters_s": (fn("sampling.sample_parameters")["incl_s"] / rounds, "s"),
        "sampling.bulk_spectra_s": (fn("sampling.bulk_spectra")["incl_s"] / rounds, "s"),
        "sampling.classify_points_s": (fn("sampling.classify_points")["incl_s"] / rounds, "s"),
        "cli.sample_format_write_s": (fn("cli.cmd_sample")["self_s"] / rounds, "s"),
        "region.membership_us": (per_call("region.membership", 1e6), "us"),
        "region.membership_calls": (fn("region.membership")["calls"] / rounds, "count"),
        "region.left_boundary_form_calls_per_realize": (
            ratio(sites.get("synthesis:region.left_boundary_form", 0), fn("synthesis.realize")["calls"]), "count"),
        "region.trace_left_curve_ms": (per_call("region.trace_left_curve", 1e3), "ms"),
        "region.trace_left_curve_calls_per_trace": (
            ratio(fn("region.trace_left_curve")["calls"], fn("cli.cmd_trace")["calls"]), "count"),
    }
    for name in ("synthesis.realize", "synthesis.ray_to_left_boundary", "synthesis.alpha_for_left_point",
                 "synthesis.shrink", "criterion.make_context", "criterion.solve_criterion",
                 "matrix.spectrum", "matrix.eigen_residual", "scalar.solve_quartic"):
        m[f"{name}_us"] = (per_call(name, 1e6), "us")
    m["criterion.log_modulus_ratio_calls_per_solve"] = (
        ratio(fn("criterion.log_modulus_ratio")["calls"], fn("criterion.solve_criterion")["calls"]), "count")
    m["matrix.eigen_residual_calls"] = (fn("matrix.eigen_residual")["calls"] / rounds, "count")
    m["scalar.solve_quartic_calls"] = (fn("scalar.solve_quartic")["calls"] / rounds, "count")
    m["identities.verify_identity_suite_ms"] = (per_call("identities.verify_identity_suite", 1e3), "ms")
    m["figure.render_region_svg_ms"] = (per_call("figure.render_region_svg", 1e3), "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.numpy_import_ms"] = (numpy_ms, "ms")
    for command in CLI_COMMANDS:
        rec = fn(f"cli.cmd_{command}")
        m[f"cli.{command}_self_ms"] = (1e3 * rec["self_s"] / rec["calls"] if rec["calls"] else 0.0, "ms")
    for layer in LAYERS:
        self_s = sum(rec["self_s"] for name, rec in funcs.items() if name.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (1e3 * self_s / rounds, "ms")
    m["trace.overhead_pct"] = (100.0 * (slowdown(traced) / slowdown(plain) - 1.0), "%")
    m["trace.calls_per_round"] = (trace["spans"] / rounds, "count")
    return m


# ---------------------------------------------------------------- main


def report(workload, seed, results, setups, ledger, metrics, per_round_attempted) -> None:
    rounds = sum(r["rounds"] for r in results)
    print(f"workload {workload}  seed {seed}  rounds {rounds}  "
          f"attempted {per_round_attempted * rounds}  failed {ledger.failed * rounds}")
    for tag, result in zip(("untraced", "traced"), results):
        print(f"  {tag}: wall-clock items/s {raw_items_per_s(result):.6g} (program), "
              f"{raw_items_per_s(result, 'ref_s'):.6g} (reference); slowdown {slowdown(result):.5f}")
    if setups:
        print(f"  wall-clock set-up medians over {len(setups[0])} processes each: "
              f"{statistics.median(setups[0]):.6g} s (program), {statistics.median(setups[1]):.6g} s (reference)")
    for (kind, fault), count in sorted(ledger.kinds.items(), key=str):
        label = f"fault {fault}" if fault else "UNMAPPED"
        print(f"  failed {kind}: {count}/round -> {label}; e.g. {ledger.examples[kind, fault]}")
    for fault in sorted({fault for _, fault in ledger.kinds if fault}):
        print(f"  fault {fault}: {FAULTS[fault]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cycle4" / "__init__.py").is_file():
        print(f"no cycle4 source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    oracles.self_check()
    seed = args.seed % 2**32
    work = WORK / f"{args.workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        inputs = build_inputs(args.workload, seed, work)
        (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        if args.trace:
            half = args.seconds / 2
            plain = run_worker(args.workload, work, "plain", "main", half)
            traced = run_worker(args.workload, work, "traced", "main", half, trace=True)
            results = [plain, traced]
        else:
            setups = ([], [])  # the program's, the reference's
            for k in range(SETUP_PAIRS):
                for reference in (k % 2 == 1, k % 2 == 0):
                    tag = f"setup{k}-{int(reference)}"
                    setups[reference].append(run_worker(args.workload, work, tag, "setup",
                                                        reference=reference)["setup_s"])
            rss = run_worker(args.workload, work, "rss", "rss")
            main_result = run_worker(args.workload, work, "main", "main", args.seconds)
            results = [main_result]
        ledgers = [check(args.workload, inputs, r) for r in results]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = ledgers[0]
    correct = not ledger.unmapped
    if args.trace:
        same = ledgers[1].kinds == ledger.kinds and ledgers[1].attempted == ledger.attempted
        if not same or ledgers[1].unmapped or plain["output"] != traced["output"]:
            correct = False
            print("traced run differs from the untraced run", file=sys.stderr)
        metrics = per_layer(traced, plain)
        print("end to end, untraced and traced halves of the run:")
        for tag, result in (("untraced", plain), ("traced", traced)):
            print(f"  items_per_s ({tag}){'':<30} {items_per_s(args.workload, result):>14.6g} 1/s")
    else:
        metrics = end_to_end(args.workload, main_result, setups, rss)
    report(args.workload, seed, results, None if args.trace else setups, ledger, metrics, ledger.attempted)
    rounds = sum(r["rounds"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted * rounds,
        "failed": ledger.failed * rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
