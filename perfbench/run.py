"""Outside-in benchmark of mebo fits.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload highdim --seed 0 --seconds 30 --trace 0

Each run generates the workload's inputs from the seed in one process,
times set-up in fresh interpreters, then runs closed-loop fits, one at
a time, in a fresh process for about --seconds seconds, checking every
fit's output.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced fits
and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object.  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hooks
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples taken before the fit stage and as many after it, so that
# their median spans the whole run and not only its first seconds
SETUP_RUNS_EACH_SIDE = 6
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_ticks() -> list:
    """user, nice, system, idle, iowait, irq, softirq, steal of all CPUs."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:9]
    return [int(f) for f in fields] if len(fields) == 8 else []


def fingerprint() -> dict:
    """Where the numbers come from; read-only, from /proc and /sys."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    llc, llc_level = "unknown", -1
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if level.isdigit() and int(level) > llc_level:
            llc_level, llc = int(level), _read(str(index / "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": llc,
        "python": sys.version.split()[0],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "loadavg_start": _read("/proc/loadavg").strip(),
    }


def steal_share(start: list) -> float | None:
    """Share of CPU time the hypervisor gave to others since `start`."""
    end = _cpu_ticks()
    if not start or not end:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return round(delta[7] / sum(delta), 4) if sum(delta) else None


def _child(mode: str, args, tmp: Path, deadline: float, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(tmp)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for the {mode} stage")
    try:
        # subprocess.run kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"the {mode} stage ran past the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"the {mode} stage exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "mebo" / "__init__.py").is_file():
        raise RunError(f"no mebo sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    env = fingerprint()
    ticks = _cpu_ticks()
    base = ROOT / ".perfbench_tmp"
    tmp = base / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        inputs = _child("gen", args, tmp, deadline)
        _child("setup", args, tmp, deadline)  # fills the bytecode cache; not counted
        setups = [_child("setup", args, tmp, deadline) for _ in range(SETUP_RUNS_EACH_SIDE)]
        result = _child("fit", args, tmp, deadline, seconds=args.seconds, trace=args.trace)
        setups += [_child("setup", args, tmp, deadline) for _ in range(SETUP_RUNS_EACH_SIDE)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    env.update(numpy=inputs["numpy"], blas=inputs["blas"],
               loadavg_end=_read("/proc/loadavg").strip(), steal_share=steal_share(ticks))

    fits = result["fits"]
    untraced = [f for f in fits if not f["traced"]]
    traced = [f for f in fits if f["traced"]]
    failed = sum(1 for f in fits if f["problems"])
    f1s = [f["f1"] for f in fits if f["f1"] is not None]

    def median(values):
        return statistics.median(values) if values else None

    fit_s = median([f["wall_s"] for f in untraced])
    traced_s = median([f["wall_s"] for f in traced])
    values = {
        "fit_s": fit_s,
        "fit_cpu_s": median([f["cpu_s"] for f in untraced]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": median([s["import_s"] + s["dataset_s"] for s in setups]),
        "f1": median(f1s),
        "core.dataset_s": median([s["dataset_s"] for s in setups]),
        "trace.overhead": traced_s / fit_s - 1 if traced_s and fit_s else None,
    }
    values.update({k: median(v) for k, v in result["layers"].items()})
    absent = dict(result["absent"])
    if not traced:
        absent["trace.overhead"] = "no traced fit in this run"

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs n={inputs['n']} d={inputs['d']} " + json.dumps(inputs["digests"], sort_keys=True))
    for i, f in enumerate(fits):
        print(f"fit {i} {'traced  ' if f['traced'] else 'untraced'} wall_s={f['wall_s']:.4f} "
              f"cpu_s={f['cpu_s']:.4f} f1={f['f1']} digest={f['digest']}"
              + (f"  FAILED: {'; '.join(f['problems'])}" if f["problems"] else ""))
    print(f"fits timed: {len(untraced)} untraced, {len(traced)} traced; "
          f"error_share {failed / len(fits):.4f} ratio ({failed} of {len(fits)} fits failed)")

    # the JSON result holds the metrics BENCHMARK.json lists, each a number
    # on every workload; the traced metrics of layers that only some
    # workloads reach (multiclass, cli) are printed here with the rest
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    extra = hooks.TEXT_ONLY if args.trace else {}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    units.update(extra)
    metrics = {}
    for name in listed + [k for k in extra if k not in listed]:
        entry = {"value": values.get(name), "unit": units[name]}
        if entry["value"] is None:
            entry["absent"] = absent.get(name, "not measured")
            print(f"  {name:32s} absent: {entry['absent']}")
        else:
            print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
        if name in listed:
            metrics[name] = entry
    return {"correct": failed == 0, "attempted": len(fits), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        out = run(args)
    except (RunError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
