"""One stage of a benchmark run, in its own process.

run.py starts this script three ways; each prints one JSON object as
the last line of its standard output:

  worker.py gen   --workload W --seed S --dir D   generate the inputs into D
  worker.py setup --workload W --seed S --dir D   time `import mebo` + Dataset build
  worker.py fit   --workload W --seed S --dir D --seconds T --trace 0|1

Only the standard library is imported at the top, so that `setup` can
time the first `import mebo` (numpy included) of a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

# gamma is the only model parameter a workload sets besides the seed;
# f1_floor is the acceptance floor of the matching criterion
WORKLOADS = {
    "highdim": {"gamma": 0.1, "f1_floor": 0.95},
    "toy2d": {"gamma": 0.4, "f1_floor": 0.90},
    "multiclass_cli": {"gamma": 0.1, "f1_floor": 0.90},
}
HIGHDIM_N, HIGHDIM_D = 20000, 100
MULTI_N, MULTI_D, MULTI_FRACTIONS = 4500, 60, (0.3, 0.3, 0.3)
WARMUP_ROWS = 600


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def gen(args) -> dict:
    import numpy as np
    from mebo import synth

    if args.workload == "highdim":
        ds, labels = synth.gen_highdim(HIGHDIM_N, HIGHDIM_D, 0.1, args.seed)
    elif args.workload == "toy2d":
        ds, labels = synth.gen_toy_2d(args.seed)
    else:
        ds, labels = synth.gen_multiclass(MULTI_N, MULTI_D, MULTI_FRACTIONS, 0.1, args.seed)
    X = np.asarray(ds.points)
    out = Path(args.dir)
    np.save(out / "X.npy", X)
    np.save(out / "labels.npy", labels)
    digests = {"points": _digest(X.tobytes()), "labels": _digest(labels.tobytes())}
    if args.workload == "multiclass_cli":
        # the files `mebo gen multiclass` would write for the same arrays
        np.savetxt(out / "points.csv", X, fmt="%.10g", delimiter=",")
        np.savetxt(out / "labels.csv", labels, fmt="%d")
        digests["points.csv"] = _digest((out / "points.csv").read_bytes())
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "n": int(X.shape[0]), "d": int(X.shape[1]), "digests": digests,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def setup(args) -> dict:
    t0 = time.perf_counter()
    import mebo
    t1 = time.perf_counter()
    import numpy as np

    X = np.load(Path(args.dir) / "X.npy")
    t2 = time.perf_counter()
    mebo.Dataset(X)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "dataset_s": t3 - t2}


def _index_problems(idx, n: int) -> list:
    import numpy as np

    idx = np.asarray(idx)
    if idx.size == 0:
        return ["no inliers reported"]
    if idx.dtype.kind not in "iu":
        return [f"inlier indices have dtype {idx.dtype}"]
    out = []
    if not (np.diff(idx) > 0).all():
        out.append("inlier indices are not strictly ascending")
    if idx[0] < 0 or idx[-1] >= n:
        out.append(f"inlier indices leave [0, {n})")
    return out


class _Single:
    """`recognize` on one Dataset, as a library user calls it."""

    def __init__(self, args, X, labels):
        import numpy as np
        from mebo import metrics, recognition
        from mebo.core import Dataset, Params, derive_params

        self.np, self.metrics, self.recognition = np, metrics, recognition
        self.ds = Dataset(X)
        self.params = Params(gamma=WORKLOADS[args.workload]["gamma"], seed=args.seed)
        self.m = derive_params(self.params, self.ds.n).m
        self.true = np.flatnonzero(labels >= 1)

    def run(self):
        return self.recognition.recognize(self.ds, self.params, threads=1)

    def check(self, res) -> dict:
        np = self.np
        inl = np.asarray(res.inliers)
        problems = _index_problems(inl, self.ds.n)
        if inl.shape != (self.m,):
            problems.append(f"{inl.size} inliers, expected m = {self.m}")
        f1 = None if problems else self.metrics.f1(inl, self.true, self.ds.n).f1
        digest = _digest(inl.astype(np.int64).tobytes(),
                         np.asarray(res.ball.center, dtype=np.float64).tobytes(),
                         np.float64(res.score).tobytes())
        return {"problems": problems, "f1": f1, "digest": digest,
                "candidates": int(res.candidates_evaluated), "out_bytes": None}


class _MultifitCli:
    """`mebo multifit` on the CSV file, run in-process through cli.main."""

    def __init__(self, args, X, labels):
        from mebo import cli

        self.cli = cli
        d = Path(args.dir)
        self.out = d / "classes.json"
        self.labels_csv = d / "labels.csv"
        self.eval_out = d / "eval.json"
        self.n = X.shape[0]
        self.m = [math.ceil(f * self.n - 1e-9) for f in MULTI_FRACTIONS]
        self.argv = ["multifit", str(d / "points.csv"),
                     "--fractions", ",".join(str(f) for f in MULTI_FRACTIONS),
                     "--gamma", str(WORKLOADS[args.workload]["gamma"]),
                     "--seed", str(args.seed), "--threads", "1", "--out", str(self.out)]

    def run(self):
        self.out.unlink(missing_ok=True)
        return self.cli.main(self.argv)

    def check(self, code) -> dict:
        res = {"problems": [], "f1": None, "digest": None, "candidates": None,
               "out_bytes": None}
        if code != 0:
            res["problems"].append(f"multifit exited with code {code}")
            return res
        res["out_bytes"] = self.out.stat().st_size
        classes = json.loads(self.out.read_text())["classes"]
        problems = res["problems"]
        if len(classes) != len(self.m):
            problems.append(f"{len(classes)} classes, expected {len(self.m)}")
        seen = set()
        for j, (cls, m_j) in enumerate(zip(classes, self.m), 1):
            inl = cls["inliers"]
            problems += [f"class {j}: {p}" for p in _index_problems(inl, self.n)]
            if len(inl) != m_j or cls["size"] != m_j:
                problems.append(f"class {j}: {len(inl)} inliers, expected m_{j} = {m_j}")
            if seen.intersection(inl):
                problems.append(f"class {j} shares points with an earlier class")
            seen.update(inl)
        res["digest"] = _digest(json.dumps(
            [[c["inliers"], c["center"], c["score"]] for c in classes]).encode())
        if not problems:
            # the average matched F1 exactly as `mebo eval` reports it
            code = self.cli.main(["eval", str(self.out), str(self.labels_csv),
                                  "--out", str(self.eval_out)])
            if code != 0:
                problems.append(f"eval exited with code {code}")
            else:
                res["f1"] = json.loads(self.eval_out.read_text())["average_f1"]
        return res


def fit(args) -> dict:
    import numpy as np
    from mebo import recognition
    from mebo.core import Dataset, Params, derive_params

    import hooks

    d = Path(args.dir)
    X = np.load(d / "X.npy")
    labels = np.load(d / "labels.npy")
    multiclass = args.workload == "multiclass_cli"
    job = (_MultifitCli if multiclass else _Single)(args, X, labels)
    gamma = WORKLOADS[args.workload]["gamma"]
    floor = WORKLOADS[args.workload]["f1_floor"]
    params = Params(gamma=gamma, seed=args.seed)
    derived = derive_params(params, X.shape[0])

    # one small tree first, so BLAS threads and lazy imports are up before timing
    recognition.recognize(Dataset(X[:WARMUP_ROWS]),
                          Params(gamma=gamma, seed=args.seed, forest_size=1,
                                 sequential_rounds=0))

    fits, layers, absent = [], {}, {}
    peak_rss_mb = None
    start = time.perf_counter()
    # closed loop: two fits at least, so that their digests can be compared,
    # then another only if it should end within --seconds
    while len(fits) < 2 or (time.perf_counter() - start + statistics.median(
            f["wall_s"] for f in fits) <= args.seconds):
        # a traced run alternates untraced and traced fits, untraced first
        traced = bool(args.trace) and len(fits) % 2 == 1
        tracer = hooks.Tracer() if traced else None
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer, tracer.root():
                    out = job.run()
        except Exception as exc:  # a failed fit is counted, not fatal to the run
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rec = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "problems": [],
               "f1": None, "digest": None}
        fits.append(rec)
        if peak_rss_mb is None:
            # later fits can only add allocator fragmentation, whose amount
            # depends on the order of frees, not on what a fit needs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if error is not None:
            rec["problems"].append(error)
            continue
        try:
            chk = job.check(out)
            rec.update(problems=chk["problems"], f1=chk["f1"], digest=chk["digest"])
            if chk["f1"] is not None and chk["f1"] < floor:
                rec["problems"].append(f"f1 {chk['f1']:.4f} is below the floor {floor}")
            if tracer is not None:
                values, gone, trace_problems = hooks.analyse(
                    tracer, multiclass=multiclass, candidates=chk["candidates"],
                    s=derived.s, h=derived.h,
                    trees=(params.forest_size + params.sequential_rounds)
                    * (len(MULTI_FRACTIONS) if multiclass else 1),
                    out_bytes=chk["out_bytes"])
                rec["problems"] += trace_problems
                for name, v in values.items():
                    layers.setdefault(name, []).append(v)
                absent.update(gone)
        except Exception as exc:  # an unreadable output fails the fit, not the run
            rec["problems"].append(f"checking the output raised {type(exc).__name__}: {exc}")

    # every fit of one seed must give the same answer, traced or not
    ref = next((f["digest"] for f in fits if f["digest"] is not None), None)
    for f in fits:
        if f["digest"] is not None and f["digest"] != ref:
            f["problems"].append(f"digest {f['digest']} differs from the first fit's {ref}")
    return {
        "fits": fits,
        "layers": layers,
        "absent": {k: v for k, v in absent.items() if k not in layers},
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["gen", "setup", "fit"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    result = {"gen": gen, "setup": setup, "fit": fit}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
