"""Command line front end.

Subcommands: gen (synthetic datasets), fit (one ball), multifit
(greedy multi-class peeling), eval (F1 against labels), bench (timing
grid).  Points files are headerless CSV, one point per row; labels
files hold one integer per row (0 = outlier, j >= 1 = class j).  A
CSV file loads exactly when numpy's loadtxt loads it, so its cells
follow loadtxt's number grammar; a refused file gets a row and column
diagnostic.

Results are JSON with sorted keys, so identical flags yield byte
identical output; wall-clock milliseconds go to stderr to keep it so.
Exit codes: 0 success, 1 validation or parse errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .core import Dataset, MeboError, Params, as_int, derive_params
from .metrics import as_index_set, f1
from .multiclass import ClassSpec, peel
from .recognition import recognize
from .synth import gen_highdim, gen_multiclass, gen_toy_2d

__all__ = ["main", "entry", "cmd_gen", "cmd_fit", "cmd_multifit", "cmd_eval", "cmd_bench"]


class _Parser(argparse.ArgumentParser):
    # exit 2 means an I/O failure here; flag validation must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- I/O


def _scan_csv(path: str, lines: list, cell: type, refusal: ValueError):
    """Raise the first fault for which np.loadtxt refused lines, by
    1-based row (line of the file) and column: a row whose column count
    differs from the first row's, or a cell loadtxt refuses.  Rows and
    cells go to loadtxt itself, so this finds faults and reads no data."""
    width = None
    with warnings.catch_warnings():
        # loadtxt warns on a line with no data: a blank or comment line
        warnings.simplefilter("ignore", UserWarning)
        for i, line in enumerate(lines, 1):
            cells = np.loadtxt([line], delimiter=",", dtype=object, ndmin=1)
            if cells.size == 0:
                continue
            width = width or cells.size
            if cells.size != width:
                raise MeboError(f"{path}: row {i} has {cells.size} columns, expected {width}")
            if _refuses(line, cell):
                for j in range(width):
                    if _refuses(line, cell, usecols=j):
                        raise MeboError(f"{path}: row {i}, column {j + 1}: "
                                        f"not a valid number: {cells[j].strip()!r}")
    raise MeboError(f"{path}: {refusal}")


def _refuses(line: str, cell: type, **kw) -> bool:
    try:
        np.loadtxt([line], delimiter=",", dtype=cell, **kw)
    except ValueError:
        return True
    return False


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise MeboError(f"{path}: not UTF-8 text") from None


def _load_csv(path: str, cell: type) -> np.ndarray:
    """Points (cell float, one row per point) or labels (cell int, one
    column) from a headerless CSV."""
    lines = _read_text(path).splitlines()
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no data and returns 0 rows
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", dtype=cell, ndmin=2)
    except ValueError as exc:
        _scan_csv(path, lines, cell, exc)
    if rows.shape[0] == 0:
        raise MeboError(f"{path}: no data rows")
    if cell is float:
        return rows
    if rows.shape[1] != 1:
        raise MeboError(f"{path}: expected one label per row, got {rows.shape[1]} columns")
    return rows[:, 0]


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------- params


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Params)}


def _add_model_flags(sp, gamma_default=None, forest_default=_DEFAULTS["forest_size"],
                     rounds_default=_DEFAULTS["sequential_rounds"]):
    """The Params flags, with Params's defaults; --gamma is required
    unless gamma_default is given."""
    sp.add_argument("--gamma", type=float, required=gamma_default is None,
                    default=gamma_default, help="outlier ratio in [0, 1)"
                    + ("" if gamma_default is None else " (default %(default)s)"))
    sp.add_argument("--epsilon", type=float, default=_DEFAULTS["epsilon"],
                    help="radius slack (default %(default)s)")
    sp.add_argument("--delta", type=float, default=_DEFAULTS["delta"],
                    help="coverage slack (default %(default)s)")
    sp.add_argument("--mu", type=float, default=_DEFAULTS["mu"],
                    help="per-tree failure bound (default %(default)s)")
    sp.add_argument("--forest", type=int, default=forest_default,
                    help="number of independently rooted trees (default %(default)s)")
    sp.add_argument("--rounds", type=int, default=rounds_default,
                    help="sequential re-rooting rounds after the forest (default %(default)s)")
    sp.add_argument("--seed", type=int, default=_DEFAULTS["seed"],
                    help="random seed (default %(default)s)")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility, no effect; BLAS is the only "
                         "parallel layer (e.g. OPENBLAS_NUM_THREADS)")


def _params_from(args) -> Params:
    return Params(gamma=args.gamma, epsilon=args.epsilon, delta=args.delta, mu=args.mu,
                  forest_size=args.forest, sequential_rounds=args.rounds, seed=args.seed)


def _echo(p: Params, n: int) -> dict:
    echo = dataclasses.asdict(p)
    echo["meb_iters"] = p.meb_iter_count
    echo["derived"] = dataclasses.asdict(derive_params(p, n))
    return echo


def _parse_list(text: str, cell: type, name: str) -> list:
    try:
        return [cell(c) for c in text.split(",")]
    except ValueError:
        raise MeboError(f"bad {name} list: {text!r}") from None


# ----------------------------------------------------------- commands


def cmd_gen(args) -> int:
    if args.kind == "toy2d":
        ds, labels = gen_toy_2d(args.seed)
    elif args.kind == "highdim":
        ds, labels = gen_highdim(args.n, args.d, args.gamma, args.seed)
    else:
        fr = _parse_list(args.fractions, float, "fractions")
        ds, labels = gen_multiclass(args.n, args.d, fr, args.gamma, args.seed)
    out = Path(args.out)
    labels_path = out.with_name(out.stem + ".labels" + (out.suffix or ".csv"))
    np.savetxt(out, ds.points, fmt="%.10g", delimiter=",")
    np.savetxt(labels_path, labels, fmt="%d")
    print(f"wrote {out} ({ds.n} rows) and {labels_path}", file=sys.stderr)
    return 0


def _fit_common(args):
    X = _load_csv(args.points, float)
    p = _params_from(args)
    return Dataset(X), p


def _ball_doc(res, **extra) -> dict:
    """The JSON fields of one fitted ball, plus extra."""
    return {
        "center": [float(x) for x in res.ball.center],
        "radius": float(res.ball.radius),
        "inliers": [int(i) for i in res.inliers],
        "score": float(res.score),
        **extra,
    }


def cmd_fit(args) -> int:
    ds, p = _fit_common(args)
    t0 = time.perf_counter()
    res = recognize(ds, p)
    millis = (time.perf_counter() - t0) * 1e3
    doc = _ball_doc(res, candidates_evaluated=int(res.candidates_evaluated),
                    params_echo=_echo(p, ds.n))
    print(f"millis={millis:.3f}", file=sys.stderr)
    _emit(args, _dump_json(doc))
    return 0


def cmd_multifit(args) -> int:
    ds, p = _fit_common(args)
    spec = ClassSpec(fractions=_parse_list(args.fractions, float, "fractions"))
    t0 = time.perf_counter()
    fitted = peel(ds, spec, p)
    millis = (time.perf_counter() - t0) * 1e3
    doc = {
        "classes": [_ball_doc(r, size=int(r.inliers.shape[0])) for r in fitted],
        "fractions": list(spec.fractions),
        "params_echo": _echo(p, ds.n),
    }
    print(f"millis={millis:.3f}", file=sys.stderr)
    _emit(args, _dump_json(doc))
    return 0


def _match_classes(preds, labels):
    """Greedily pair each fitted class's inlier set with the unused true
    class of largest overlap; deterministic (ties break on the smaller
    label)."""
    true_sets = {}
    for lab in np.unique(labels):
        if lab >= 1:
            true_sets[int(lab)] = np.flatnonzero(labels == lab)
    used = set()
    pairs = []
    for pred in preds:
        best_lab, best_hit = None, -1
        for lab in sorted(true_sets):
            if lab in used:
                continue
            hit = np.intersect1d(pred, true_sets[lab]).size
            if hit > best_hit:
                best_lab, best_hit = lab, hit
        if best_lab is not None:
            used.add(best_lab)
        pairs.append((pred, best_lab))
    return pairs, true_sets


def cmd_eval(args) -> int:
    text = _read_text(args.result)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeboError(f"{args.result}: bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MeboError(f"{args.result}: expected a JSON object at the top level")
    if "classes" in doc:
        classes = doc["classes"]
        if not isinstance(classes, list) or not classes:
            raise MeboError(f'{args.result}: "classes" must be a nonempty list')
        for j, rec in enumerate(classes, 1):
            if not isinstance(rec, dict) or "inliers" not in rec:
                raise MeboError(f'{args.result}: class {j} has no "inliers" list')
    labels = _load_csv(args.labels, int)
    n = labels.shape[0]
    if "classes" in doc:
        preds = [as_index_set(f"{args.result}: class {j}: inlier", rec["inliers"], n)
                 for j, rec in enumerate(doc["classes"], 1)]
        pairs, true_sets = _match_classes(preds, labels)
        per_class = []
        scores = []
        for pred, lab in pairs:
            true = true_sets.get(lab, np.empty(0, dtype=np.int64))
            r = f1(pred, true, n)
            per_class.append({
                "matched_label": lab,
                "precision": r.precision,
                "recall": r.recall,
                "f1": r.f1,
            })
            scores.append(r.f1)
        out = {
            "classes": per_class,
            "average_f1": sum(scores) / len(scores),
            "n": int(n),
        }
    else:
        pred = as_index_set(f"{args.result}: inlier", doc.get("inliers", []), n)
        true = np.flatnonzero(labels >= 1)
        r = f1(pred, true, n)
        out = {
            "precision": r.precision,
            "recall": r.recall,
            "f1": r.f1,
            "empty_prediction": r.empty_prediction,
            "predicted_count": int(pred.size),
            "true_count": int(true.size),
            "n": int(n),
        }
    _emit(args, _dump_json(out))
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_list(args.sizes, int, "--sizes")
    dims = _parse_list(args.dims, int, "--dims")
    as_int("--runs", args.runs, 1)
    as_int("--warmup", args.warmup, 0)
    p = _params_from(args)
    lines = ["n,d,runs,median_ms"]
    for n in sizes:
        for d in dims:
            ds, _ = gen_highdim(n, d, p.gamma, p.seed)
            for _ in range(args.warmup):
                recognize(ds, p)
            times = []
            for _ in range(args.runs):
                t0 = time.perf_counter()
                recognize(ds, p)
                times.append((time.perf_counter() - t0) * 1e3)
            med = statistics.median(times)
            lines.append(f"{n},{d},{args.runs},{med:.3f}")
            print(f"bench n={n} d={d} median_ms={med:.3f}", file=sys.stderr)
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mebo", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a synthetic dataset and its labels")
    g.add_argument("kind", choices=["toy2d", "highdim", "multiclass"])
    g.add_argument("--n", type=int, default=20000)
    g.add_argument("--d", type=int, default=100)
    g.add_argument("--gamma", type=float, default=0.2)
    g.add_argument("--fractions", type=str, default="0.3,0.3,0.3",
                   help="comma-separated class fractions (multiclass)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="points CSV path; labels go beside it")
    g.set_defaults(fn=cmd_gen)

    f = sub.add_parser("fit", help="fit one ball and report its inliers")
    f.add_argument("points", help="points CSV")
    _add_model_flags(f)
    f.add_argument("--out", default=None, help="result JSON path (default stdout)")
    f.set_defaults(fn=cmd_fit)

    mf = sub.add_parser("multifit", help="peel one ball per class")
    mf.add_argument("points", help="points CSV")
    mf.add_argument("--fractions", required=True,
                    help="comma-separated per-class inlier fractions")
    _add_model_flags(mf)
    mf.add_argument("--out", default=None)
    mf.set_defaults(fn=cmd_multifit)

    e = sub.add_parser("eval", help="score a fit result against labels")
    e.add_argument("result", help="result JSON from fit or multifit")
    e.add_argument("labels", help="labels CSV")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    b = sub.add_parser("bench", help="time fits over an (n, d) grid")
    b.add_argument("--sizes", default="5000,10000,20000,40000")
    b.add_argument("--dims", default="50")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--warmup", type=int, default=1)
    _add_model_flags(b, gamma_default=0.2, forest_default=1, rounds_default=0)
    b.add_argument("--out", default=None, help="timing CSV path (default stdout)")
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MeboError as exc:
        print(f"mebo: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the one place a file that cannot be read or written is reported
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"mebo: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
