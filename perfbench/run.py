"""Benchmark for the borderrank CLI: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
the interpreter that runs the CLI.  Each case is one fresh
`python3 -m borderrank.cli` process, run one after another, so a case's
wall time includes interpreter start, imports and schema validation, as a
user sees it.  The case list is run in passes: one whole pass, then case
after case until S seconds have gone by.  Each case's figure is its median
over the passes.

With --trace 0 the last line of stdout reports the end-to-end metrics:
setup_s (median time of a fresh process running a trivial command),
cal_wall_s (sum of the case medians), cal_geomean_case_s, cal_max_case_s and
peak_rss_mb (the largest `wait4` peak RSS of any case process; pool workers
count, since the CLI reaps them).  Every time among them is a wall time in
calibrated seconds: each process's time is scaled by CALIBRATION_S over the
mean time that a fixed task (calibration_work) took when timed between the
processes near it, which cancels most of a shared host's drift in speed (see
README.md).
With --trace 1 every pass also runs each case under traced_cli.py, and the
last line reports per-layer metrics taken from its spans instead.  The line before the last holds the per-case figures, the
machine facts and the caveats.

Every output document is checked: its exit code, its verdict against the
case table in cases.py, its shape against the report schema of the code under
test, every Found candidate replayed through `borderrank verify`, Exhausted
node counts equal across variable orders, and on search-jobs2 the status and
first candidate equal to a serial run's.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import (  # noqa: E402
    Case,
    certify_cases,
    check_document,
    search_cases,
    tensor_for_pass,
)

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0  # every child is killed after this much of the run
SETUP_PROBES = 7
SETUP_ARGV = ["macaulay", "--r", "15", "--d", "3"]
JOBS2_CASES = {"search-11111-r15", "search-22111-r24", "search-32211-r33"}
# A typical mean time of calibration_work() on the 2-vCPU VM the bounds were
# set on (Python 3.11.7); it ranged over 0.11-0.19 s there.  A calibrated
# second is a second at the speed at which the task takes this long.
CALIBRATION_S = 0.15
# A process is calibrated by the timings of the task that start within
# max(CALIBRATION_WINDOW_S, CALIBRATION_WINDOW_SHARE x its wall time) of it.
# A short process ran at the speed of the moment, which the nearest timings
# show; a long one at the mean speed over a stretch about as long as itself.
# Of the windows tried on that VM (1, 3, 8 and 20 s, the whole run, and this
# one), this one gave the steadiest figures over the three workloads.
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_WINDOW_SHARE = 2.0

# Why each workload: see README.md in this directory.
WORKLOADS = {
    "search-serial": lambda catalog, corpus: search_cases(catalog, jobs=1),
    "search-jobs2": lambda catalog, corpus: search_cases(
        catalog, jobs=2, names=JOBS2_CASES
    ),
    "certify": certify_cases,
}

MODULES = ["cli", "movefit", "ideals", "linalg", "apolarity", "bounds", "macaulay", "ring"]
# per-layer metric -> the traced functions whose outermost spans it sums
LAYER_SPANS = {
    "cli.load_s": {"cli.load_tensor", "cli.load_ideal"},
    "movefit.plan_s": {"movefit._build_plan"},
    "movefit.verify_s": {"movefit.verify_candidate"},
    "ideals.hilbert_s": {"ideals.hilbert_function"},
    "ideals.saturation_probe_s": {"ideals.saturation_defect"},
    "linalg.row_echelon_s": {"linalg.row_echelon"},
    "apolarity.catalecticant_s": {"apolarity.catalecticant_lower_bound"},
    "bounds.report_s": {"bounds.bounds_report"},
    "bounds.minimal_tests_s": {
        "bounds.minimal_border_rank_generator_test",
        "bounds.minimal_border_rank_quotient_test",
    },
    "macaulay.lexbar_s": {"macaulay.lexbar_growth", "macaulay.lexbar_profile"},
    "ring.enumerate_s": {"ring.enumerate_monomials"},
}


@dataclass
class Proc:
    """One finished CLI process."""

    start: float  # time.perf_counter() when it was started
    wall: float
    code: int
    rss_mb: float  # peak RSS from wait4, which covers the children it reaped
    out: Path
    err: Path
    spans: Path | None

    def stderr_tail(self) -> str:
        return self.err.read_text(errors="replace").strip()[-300:]


@dataclass
class Execution:
    case: Case
    argv: list
    traced: bool
    serial_reference: bool  # traced --jobs 1 twin of a search-jobs2 case
    proc: Proc
    doc: object = None
    spans: list | None = None
    error: str | None = None


class Runner:
    """Starts CLI processes one at a time and measures each."""

    def __init__(self, root: Path, work: Path, hard_deadline: float):
        self.root = root
        self.work = work
        self.hard_deadline = hard_deadline
        self.counter = itertools.count()
        self.env = dict(os.environ)
        self.env.pop("BORDERRANK_JOBS", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv, trace_id: str | None = None) -> Proc:
        n = next(self.counter)
        out, err = self.work / f"out{n}.json", self.work / f"err{n}.txt"
        spans = None
        cmd = [sys.executable, "-m", "borderrank.cli", *argv]
        if trace_id is not None:
            spans = self.work / f"spans{n}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), trace_id, *argv]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=stdout, stderr=stderr, env=self.env, cwd=self.root,
                start_new_session=True,
            )
            limit = max(1.0, self.hard_deadline - start)
            timer = threading.Timer(limit, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(start, wall, proc.returncode, usage.ru_maxrss / 1024.0, out, err, spans)


def calibration_work() -> tuple:
    """A fixed task of the kinds of work the CLI does: small-int bit twiddling
    and dict updates, as in the move-fit search, and Fraction row operations,
    as in linalg.  It is part of the benchmark, never of the code under test."""
    seen = {}
    mask = 0
    for i in range(150_000):
        mask = (mask * 31 + i) & 0xFFFFF
        key = (mask & 0xFF, mask >> 12)
        seen[key] = seen.get(key, 0) + bin(mask).count("1")
    row = [Fraction(i, i + 1) for i in range(1, 41)]
    for pivot in range(1, 41):
        f = Fraction(pivot, pivot + 2)
        row = [x - f * y for x, y in zip(row, row[1:] + row[:1])]
    return len(seen), row[0].denominator.bit_length()


CALIBRATION_RESULT = (63884, 201)


def calibration_time() -> float:
    """Wall time of one calibration_work(), which the host's speed sets."""
    start = time.perf_counter()
    result = calibration_work()
    elapsed = time.perf_counter() - start
    if result != CALIBRATION_RESULT:
        raise RuntimeError(f"calibration task gave {result}, not {CALIBRATION_RESULT}")
    return elapsed


class Calibration:
    """Times calibration_work() between the timed processes, and converts a
    process's wall time to calibrated seconds."""

    def __init__(self):
        self.samples = []  # (start, duration) of each timing of the task

    def sample_after(self, proc: Proc) -> None:
        for _ in range(math.ceil(proc.wall)):
            start = time.perf_counter()
            self.samples.append((start, calibration_time()))

    def seconds(self, proc: Proc) -> float:
        window = max(CALIBRATION_WINDOW_S, CALIBRATION_WINDOW_SHARE * proc.wall)
        lo = proc.start - window
        hi = proc.start + proc.wall + window
        near = [d for t, d in self.samples if lo <= t <= hi]
        return proc.wall * CALIBRATION_S / statistics.mean(near)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def execute(runner: Runner, case: Case, argv, traced=False, serial_reference=False):
    proc = runner.run(argv, case.name if traced else None)
    e = Execution(case, argv, traced, serial_reference, proc, _load_json(proc.out))
    if proc.code != 0:
        e.error = f"exit code {proc.code}: {proc.stderr_tail()}"
    else:
        try:
            e.error = check_document(case, e.doc)
        except (AttributeError, TypeError) as exc:
            e.error = f"malformed output document: {exc!r}"
    if traced and e.error is None:
        e.spans = _load_json(proc.spans)
        if not isinstance(e.spans, list):
            e.error = "traced run wrote no spans"
    return e


def _serial_argv(argv):
    i = argv.index("--jobs")
    return argv[: i + 1] + ["1"] + argv[i + 2 :]


# ---------------------------------------------------------------------------
# Checks that span executions
# ---------------------------------------------------------------------------

def _outcome(e: Execution) -> dict:
    outcome = e.doc.get("outcome") if isinstance(e.doc, dict) else None
    return outcome if isinstance(outcome, dict) else {}


def check_node_invariance(executions) -> None:
    """Exhausted node counts must not depend on the variable order."""
    by_case = {}
    for e in executions:
        if e.error is None and e.case.command == "search" and e.case.permute:
            by_case.setdefault(e.case.name, []).append(e)
    for name, group in by_case.items():
        nodes = {str((_outcome(e).get("statistics") or {}).get("nodes")) for e in group}
        if len(nodes) > 1:
            for e in group:
                e.error = f"Exhausted node counts differ across variable orders: {sorted(nodes)}"


def replay_found(runner: Runner, executions, docs: list) -> None:
    """Every Found candidate must pass `borderrank verify`."""
    replays = {}
    for e in executions:
        outcome = _outcome(e)
        if e.error is not None or outcome.get("status") != "Found":
            continue
        tensor = e.argv[1]
        key = (json.dumps(outcome.get("candidate_ideal"), sort_keys=True), tensor)
        if key not in replays:
            ideal = runner.work / f"candidate{len(replays)}.json"
            ideal.write_text(key[0])
            argv = ["verify", str(ideal), tensor, "--r", str(outcome["r"]),
                    "--horizon", str(outcome["horizon"])]
            proc = runner.run(argv)
            docs.append(proc.out)
            doc = _load_json(proc.out)
            passed = isinstance(doc, dict) and doc.get("report", {}).get("passed")
            replays[key] = None if proc.code == 0 and passed is True else (
                f"Found candidate fails verify (exit {proc.code}, passed {passed})"
            )
        if replays[key] is not None:
            e.error = replays[key]


def check_against_serial(runner: Runner, executions, docs: list) -> None:
    """A --jobs 2 search must give the status and first candidate of --jobs 1."""
    references = {}
    for e in executions:
        if e.error is not None or e.serial_reference or "--jobs" not in e.argv:
            continue
        if e.argv[e.argv.index("--jobs") + 1] == "1" or e.case.permute:
            continue  # serial already, or Exhausted (status fixed by the table)
        key = tuple(e.argv)
        if key not in references:
            proc = runner.run(_serial_argv(e.argv))
            docs.append(proc.out)
            ref = _load_json(proc.out) if proc.code == 0 else None
            references[key] = ref.get("outcome", {}) if isinstance(ref, dict) else None
        ref, got = references[key], _outcome(e)
        if ref is None:
            e.error = "serial reference run failed"
        elif (got.get("status"), got.get("candidate_generators")) != (
            ref.get("status"), ref.get("candidate_generators")
        ):
            e.error = "status or first candidate differs from the --jobs 1 run"


def validate_documents(runner: Runner, executions, docs: list, problems: list) -> None:
    listing = runner.work / "documents.txt"
    paths = [str(e.proc.out) for e in executions] + [str(p) for p in docs]
    listing.write_text("\n".join(paths))
    schema = runner.root / "src" / "borderrank" / "schemas" / "report.schema.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "validate.py"), str(schema), str(listing)],
        capture_output=True, text=True, env=runner.env, cwd=runner.root,
        timeout=max(1.0, runner.hard_deadline - time.perf_counter()),
    )
    invalid = None
    if proc.returncode == 0:
        try:
            invalid = json.loads(proc.stdout)
        except ValueError:
            pass
    if not isinstance(invalid, dict):
        problems.append(f"schema validation did not run: {proc.stderr.strip()[-300:]}")
        return
    for e in executions:
        message = invalid.pop(str(e.proc.out), None)
        if message is not None and e.error is None:
            e.error = f"output fails report.schema.json: {message}"
    problems.extend(f"{p} fails report.schema.json: {m}" for p, m in invalid.items())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _by_case(executions, value) -> dict:
    by_case = {}
    for e in executions:
        by_case.setdefault(e.case.name, []).append(value(e))
    return by_case


def _per_case_median(executions, value) -> dict:
    return {name: statistics.median(v) for name, v in _by_case(executions, value).items()}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def end_to_end(measured, setup, calibration: Calibration) -> dict:
    walls = _per_case_median(measured, lambda e: calibration.seconds(e.proc))
    return {
        "setup_s": (statistics.median(calibration.seconds(p) for p in setup), "s"),
        "cal_wall_s": (sum(walls.values()), "s"),
        "cal_geomean_case_s": (_geomean(walls.values()), "s"),
        "cal_max_case_s": (max(walls.values()), "s"),
        "peak_rss_mb": (max(e.proc.rss_mb for e in measured), "MB"),
    }


def layer_values(spans: list) -> dict:
    """Per-layer figures of one traced process."""
    names = [s["name"] for s in spans]
    durations = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            child_time[s["parent"]] += d

    def outermost(group):
        total = 0.0
        for i, s in enumerate(spans):
            if names[i] not in group:
                continue
            p = s["parent"]
            while p is not None and names[p] not in group:
                p = spans[p]["parent"]
            if p is None:
                total += durations[i]
        return total

    values = {key: outermost(group) for key, group in LAYER_SPANS.items()}
    values["cli.import_s"] = outermost({"cli.import"})
    values["movefit.search_s"] = outermost({"movefit.search"}) - values["movefit.plan_s"]
    values["linalg.row_echelon.calls"] = names.count("linalg.row_echelon")
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            (d - c for n, d, c in zip(names, durations, child_time)
             if n.split(".")[0] == module and n != "cli.import"),
            0.0,
        )
    return values


def per_layer(untraced, traced, serial_twins) -> dict:
    layers = {id(e): layer_values(e.spans) for e in traced + serial_twins}
    per_case = _by_case(traced, lambda e: layers[id(e)])
    keys = next(iter(per_case.values()))[0].keys()
    metrics = {}
    for key in keys:
        unit = "count" if key.endswith(".calls") else "s"
        if key == "cli.import_s":
            value = statistics.median(v[key] for vs in per_case.values() for v in vs)
        else:
            value = sum(statistics.median(v[key] for v in vs) for vs in per_case.values())
        metrics[key] = (value, unit)

    nodes = symmetry = overflow = 0
    # one output per case: Exhausted nodes are equal in every pass (checked)
    first = {}
    for e in traced:
        first.setdefault(e.case.name, _outcome(e).get("statistics"))
    for stats in filter(None, first.values()):
        nodes += stats["nodes"]
        symmetry += stats["prunings"].get("symmetry", 0)
        overflow += stats["prunings"].get("mandatory_overflow", 0)
    search_s = metrics["movefit.search_s"][0]
    metrics["movefit.nodes"] = (nodes, "count")
    metrics["movefit.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    metrics["movefit.symmetry_reject_ratio"] = (symmetry / nodes if nodes else 0.0, "ratio")
    metrics["movefit.overflow_ratio"] = (overflow / nodes if nodes else 0.0, "ratio")

    serial = _per_case_median(serial_twins, lambda e: layers[id(e)]["movefit.search_s"])
    jobs2 = _per_case_median(traced, lambda e: layers[id(e)]["movefit.search_s"])
    speedups = [serial[name] / jobs2[name] for name in serial if jobs2.get(name)]
    metrics["movefit.jobs2_speedup"] = (_geomean(speedups), "ratio")

    traced_wall = sum(_per_case_median(traced, lambda e: e.proc.wall).values())
    untraced_wall = sum(_per_case_median(untraced, lambda e: e.proc.wall).values())
    metrics["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def machine_facts(root: Path) -> dict:
    try:
        jsonschema_version = importlib.metadata.version("jsonschema")
    except importlib.metadata.PackageNotFoundError:
        jsonschema_version = None
    commit = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "jsonschema": jsonschema_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def caveats(facts: dict) -> list:
    return [
        f"nproc = {facts['nproc']}: parallel speedup cannot be measured above "
        f"{facts['nproc']} workers",
        "movefit.nodes compares only between commits that define a search node "
        "the same way; a search that counts nodes differently makes it incomparable",
        "commit is null when the checkout is not a git repository; src_sha256 "
        "identifies the code under test",
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, root: Path, work: Path) -> dict:
    t_start = time.perf_counter()
    runner = Runner(root, work, t_start + HARD_LIMIT_S)
    corpus = root / "src" / "borderrank" / "corpus"
    catalog = {c["name"]: c for c in json.loads((corpus / "catalog.json").read_text())}
    cases = WORKLOADS[args.workload](catalog, corpus)
    problems, docs = [], []

    # The calibration task is timed after every untraced process, once per
    # started second of its wall time.
    calibration = Calibration()

    # set-up: one warm-up (writes the bytecode cache), then timed probes
    setup = []
    for i in range(SETUP_PROBES + 1):
        proc = runner.run(SETUP_ARGV)
        docs.append(proc.out)
        if proc.code != 0:
            problems.append(f"set-up probe exited {proc.code}: {proc.stderr_tail()}")
        if i:
            setup.append(proc)
            calibration.sample_after(proc)

    executions = []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for case in cases:
            if passes and time.perf_counter() >= deadline:
                break  # the first pass runs whole; later ones stop on time
            tensor = tensor_for_pass(case, args.seed, passes, work)
            argv = [tensor if a == "{tensor}" else a for a in case.argv]
            executions.append(execute(runner, case, argv))
            calibration.sample_after(executions[-1].proc)
            if args.trace:
                executions.append(execute(runner, case, argv, traced=True))
                if args.workload == "search-jobs2":
                    executions.append(execute(
                        runner, case, _serial_argv(argv), traced=True,
                        serial_reference=True,
                    ))
        passes += 1
        if time.perf_counter() > t_start + HARD_LIMIT_S:
            problems.append("the run reached its time limit")
            break

    check_node_invariance(executions)
    replay_found(runner, executions, docs)
    check_against_serial(runner, executions, docs)
    validate_documents(runner, executions, docs, problems)

    measured = [e for e in executions if not e.traced]
    failed = [e for e in executions if e.error is not None]
    ok = not failed and not problems
    if not ok:
        metrics = {}
    elif args.trace:
        traced = [e for e in executions if e.traced and not e.serial_reference]
        twins = [e for e in executions if e.serial_reference]
        metrics = per_layer(measured, traced, twins)
    else:
        metrics = end_to_end(measured, setup, calibration)

    facts = machine_facts(root)
    walls = _by_case(measured, lambda e: e.proc.wall)
    cal_walls = _by_case(measured, lambda e: calibration.seconds(e.proc))
    calibration_walls = [d for _, d in calibration.samples]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "machine": facts,
        "caveats": caveats(facts),
        "setup_probes_s": [p.wall for p in setup],
        "setup_probes_cal_s": [calibration.seconds(p) for p in setup],
        "calibration_s": {
            "mean": statistics.mean(calibration_walls),
            "min": min(calibration_walls),
            "max": max(calibration_walls),
            "n": len(calibration_walls),
        },
        "cases": [
            {
                "name": c.name,
                "source": c.source,
                "expect": c.expect,
                "wall_s": {
                    "median": statistics.median(walls[c.name]),
                    "min": min(walls[c.name]),
                    "max": max(walls[c.name]),
                    "n": len(walls[c.name]),
                },
                "cal_wall_s_median": statistics.median(cal_walls[c.name]),
            }
            for c in cases
        ],
        "failed_ratio": len(failed) / len(executions),
        "failures": [f"{e.case.name}: {e.error}" for e in failed][:20] + problems,
    }
    print(json.dumps(detail))
    return {
        "correct": ok,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "borderrank" / "cli.py").is_file():
        print(f"no borderrank sources under {root / 'src'}; run from the root of "
              "a borderrank checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
