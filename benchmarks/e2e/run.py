"""End-to-end benchmark: seven canonical federations, measured from outside.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 0] [--reps N]
        [--seconds T] [--trace [0|1]] [--smoke] [--repeat-check] [--out DIR]

Every (workload, repetition) is a fresh `child.py` process, one at a
time (closed loop, one generator process), BLAS pinned to one thread.
Repetitions are interleaved round-robin across workloads so machine
drift spreads evenly; each end-to-end metric is reported as the median
of the untraced repetitions with its quartiles and sample count.
`--trace 1` adds a traced repetition beside each untraced one and
reports the per-layer split instead.  The metric names, units,
directions and bounds are read from `BENCHMARK.json`; the last line of
standard output is the result object its contract prescribes.  This
file imports neither numpy nor `repro`: a child's `ru_maxrss` starts
at its parent's, so the parent stays small.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from stats import summarize, verdict, worsening
from workloads import SCALE, WORKLOADS, by_name

# Measured on the seed commit: a second BLAS thread doubles CPU time
# and buys no wall time on this two-core box; workers inherit the env.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_TIMEOUT_S = 120.0


def load_contract() -> dict:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in contract["workloads"]]
    if listed != [w.name for w in WORKLOADS]:
        raise SystemExit("BENCHMARK.json and workloads.py list different workloads")
    return contract


def launch(name: str, seed: int, *, trace: bool = False, smoke: bool = False,
           twin: bool = False, spans_out: Path | None = None) -> dict:
    """Run one child to completion; a run that fails carries `failures`."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace))]
    cmd += ["--smoke"] * smoke + ["--twin"] * twin
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = {**os.environ, **BLAS_ENV, "E2E_T_SPAWN": repr(time.monotonic())}
    # Own session: a timed-out socket run is killed with its workers.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"traced": trace, "twin": twin,
                "failures": [f"exceeded the {HARD_TIMEOUT_S:.0f} s hard timeout"]}
    try:
        run = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"traced": trace, "twin": twin,
                "failures": [f"child exited {proc.returncode} without a result: {tail}"]}
    if proc.returncode != 0 and not run["failures"]:
        run["failures"] = [f"child exited {proc.returncode}"]
    return run


def measure(names: list[str], seed: int, reps: int, seconds: float | None, *,
            trace: bool, smoke: bool, out: Path | None) -> dict[str, list[dict]]:
    """Repetitions of each workload, interleaved round-robin.

    A workload gets at least `reps` repetitions and, with `seconds`,
    further ones while its measuring time so far plus one more
    repetition still fits in `seconds`.
    """
    runs: dict[str, list[dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    last = dict.fromkeys(names, 0.0)
    for rep in itertools.count():
        due = [n for n in names
               if rep < reps or (seconds is not None and spent[n] + last[n] <= seconds)]
        if not due:
            return runs
        for name in due:
            start = time.monotonic()
            runs[name].append(launch(name, seed, smoke=smoke))
            if trace:
                spans_out = out / f"spans-{name}-rep{rep}.json" if out else None
                runs[name].append(
                    launch(name, seed, trace=True, smoke=smoke, spans_out=spans_out))
                if by_name(name).twin is not None and rep == 0:
                    runs[name].append(launch(name, seed, trace=True, smoke=smoke, twin=True))
            last[name] = time.monotonic() - start
            spent[name] += last[name]


def _median(runs: list[dict], key: str) -> float:
    return summarize([r[key] for r in runs])["median"]


def report(name: str, runs: list[dict], contract: dict) -> dict:
    """One workload's numbers and cross-run checks from its repetitions."""
    good = [r for r in runs if not r["failures"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"] and not r["twin"]]
    twins = [r for r in good if r["twin"]]
    failures = [f"{name}: {msg}" for r in runs for msg in r["failures"]]
    digests = sorted({r["digest"] for r in good})
    if len(digests) > 1:
        # Covers: repetitions agree, traced = untraced, socket = in-memory twin.
        failures.append(f"{name}: runs of one seed disagree, digests {digests}")
    out = {"attempted": len(runs), "failed": len(runs) - len(good), "failures": failures,
           "digests": digests, "end_to_end": {}, "per_layer": {}}
    if plain:
        for metric in contract["end_to_end"]:
            key = metric["name"]
            values = ([len(good) / len(runs)] if key == "ok_frac"
                      else [r[key] for r in plain])
            out["end_to_end"][key] = {**summarize(values), "values": values}
        out["params"] = plain[0]["params"]
        out["versions"] = plain[0]["versions"]
    if traced and plain:
        layers = {key: _median([r["layers"] for r in traced], key)
                  for key in traced[0]["layers"]}
        wall = _median(traced, "wall_s")
        layers["trace.overhead_ratio"] = wall / _median(plain, "wall_s")
        layers["transport.overhead_x"] = wall / _median(twins, "wall_s") if twins else 0.0
        out["per_layer"] = {m["name"]: layers[m["name"]] for m in contract["per_layer"]}
        if twins:
            out["twin_per_layer"] = twins[0]["layers"]
    return out


def print_report(name: str, rep: dict, contract: dict) -> None:
    print(f"\n== {name}  ({rep['attempted']} runs, {rep['failed']} failed, "
          f"digest {'/'.join(rep['digests']) or '-'})")
    for metric in contract["end_to_end"]:
        s = rep["end_to_end"].get(metric["name"])
        if s is not None:
            print(f"  {metric['name']:<34}{s['median']:>16.6g} {metric['unit']:<6}"
                  f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.1%}"
                  f"  n={s['n']}  (bound {metric['bound']:.0%}, {metric['better']} is better)")
    wall = rep["end_to_end"].get("wall_s", {}).get("median")
    for metric in contract["per_layer"]:
        value = rep["per_layer"].get(metric["name"])
        if value:
            share = f"  {value / wall:6.1%} of wall" if metric["unit"] == "s" else ""
            print(f"  {metric['name']:<34}{value:>16.6g} {metric['unit']:<6}{share}")
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")


def contract_line(rep: dict, contract: dict, trace: bool) -> dict:
    if trace:
        metrics = {m["name"]: {"value": rep["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rep["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    return {"correct": not rep["failures"], "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def provenance(args, reports: dict, load_start: float) -> dict:
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the benchmark driver's checkout is not a git repository
    return {
        "git_rev": rev, "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "scale": SCALE,
        "params": {name: rep.get("params") for name, rep in reports.items()},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": next((rep["versions"]["numpy"] for rep in reports.values()
                       if "versions" in rep), None),
        "blas_env": BLAS_ENV, "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "clock": "host seconds (CLOCK_MONOTONIC) except sim_time_s, which is simulated",
    }


def repeat_check(first: dict, second: dict, contract: dict) -> bool:
    """Print both medians, their gap and the bound; False if any gap is wider."""
    ok = True
    print("\n== repeat check: two sets of runs of the same commit")
    for name in first:
        for metric in contract["end_to_end"]:
            a = first[name]["end_to_end"].get(metric["name"])
            b = second[name]["end_to_end"].get(metric["name"])
            if a is None or b is None:
                ok = False
                continue
            gap = abs(worsening(a["median"], b["median"], metric["better"]))
            state = verdict(a["values"], b["values"], metric["better"], metric["bound"])
            within = gap <= metric["bound"]
            ok &= within
            print(f"  {name:<20}{metric['name']:<16}{a['median']:>14.6g}{b['median']:>14.6g}"
                  f"  gap {gap:6.2%}  bound {metric['bound']:4.0%}  "
                  f"{state if within else 'GAP EXCEEDS BOUND'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=[w.name for w in WORKLOADS],
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int,
                        help="repetitions per workload (default 5; 3 pairs with --trace 1)")
    parser.add_argument("--seconds", type=float,
                        help="keep repeating a workload while this budget lasts")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: pair each repetition with a traced one, report per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition, counts / 10 (harness check, not a measurement)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="measure twice, fail if two medians differ by more than a bound")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and the traced runs' raw spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    contract = load_contract()
    names = args.workload or [w.name for w in WORKLOADS]
    if args.reps is None:
        args.reps = 1 if args.smoke else 3 if args.trace else 5
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()[0]

    passes = []
    for _ in range(2 if args.repeat_check else 1):
        runs = measure(names, args.seed, args.reps, args.seconds,
                       trace=bool(args.trace), smoke=args.smoke, out=args.out)
        passes.append({name: report(name, runs[name], contract) for name in names})
    reports = passes[-1]
    for name in names:
        print_report(name, reports[name], contract)
    ok = all(not rep["failures"] for p in passes for rep in p.values())
    if args.repeat_check:
        ok &= repeat_check(passes[0], passes[1], contract)

    prov = provenance(args, reports, load_start)
    print("\nprovenance: " + json.dumps(prov))
    if args.out is not None:
        (args.out / "results.json").write_text(
            json.dumps({"provenance": prov, "passes": passes}, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    usable = [n for n in names if reports[n][section]]
    if not usable:
        return 2  # nothing ran: no result line
    per = {n: contract_line(reports[n], contract, bool(args.trace)) for n in usable}
    if len(names) == 1:
        line = per[names[0]]
    else:
        line = {"correct": ok,
                "attempted": sum(rep["attempted"] for rep in reports.values()),
                "failed": sum(rep["failed"] for rep in reports.values()),
                "metrics": {f"{n}.{k}": v for n, p in per.items()
                            for k, v in p["metrics"].items()}}
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
