"""Command line front end.

Subcommands: gen (synthetic datasets), fit (one ball), multifit
(greedy multi-class peeling), eval (F1 against labels), bench (timing
grid).  Points files are headerless CSV, one point per row; labels
files hold one integer per row (0 = outlier, j >= 1 = class j).  A
CSV file loads exactly when numpy's loadtxt loads it, so its cells
follow loadtxt's number grammar; a refused file gets a row and column
diagnostic.

Each command but gen, which writes its two files itself, returns the
text of its one output, and main alone writes it, to --out or to
stdout.  Results are JSON with sorted keys, so identical flags yield
byte identical output; wall-clock milliseconds go to stderr to keep it
so.  Exit codes: 0 success, 1 validation or parse errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    # exit 2 means an I/O failure here; flag validation must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # each sub-parser refuses the flags it does not read itself, so a
    # stray flag comes with that command's usage, not the top level's
    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


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


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _outputs(args) -> list:
    """The files a command writes: --out, and for gen the labels file
    beside it."""
    if args.out is None:
        return []
    if not args.out:
        raise MeboError("--out must name a file, got ''")
    if args.command != "gen":
        return [args.out]
    out = Path(args.out)
    return [args.out, str(out.with_name(out.stem + ".labels" + (out.suffix or ".csv")))]


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


def cmd_gen(args) -> None:
    """Write the points to --out and the labels beside it."""
    if args.kind == "toy2d":
        ds, labels = gen_toy_2d(args.seed)
    elif args.kind == "highdim":
        ds, labels = gen_highdim(args.n, args.d, args.gamma, args.seed)
    else:
        fr = _parse_list(args.fractions, float, "fractions")
        ds, labels = gen_multiclass(args.n, args.d, fr, args.gamma, args.seed)
    out, labels_path = map(Path, _outputs(args))
    np.savetxt(out, ds.points, fmt="%.10g", delimiter=",")
    np.savetxt(labels_path, labels, fmt="%d")
    print(f"wrote {out} ({ds.n} rows) and {labels_path}", file=sys.stderr)


def _ball_doc(res, **extra) -> dict:
    """The JSON fields of one fitted ball, plus extra."""
    return {
        "center": [float(x) for x in res.ball.center],
        "radius": float(res.ball.radius),
        "inliers": [int(i) for i in res.inliers],
        "score": float(res.score),
        **extra,
    }


def cmd_fit(args) -> str:
    """fit and multifit: one ball, or one ball per class, as JSON.  Faults
    surface in the order the inputs are read: the CSV, the flags, the
    points, then the class fractions.  The library call alone is timed,
    in milliseconds on stderr."""
    X = _load_csv(args.points, float)
    p = _params_from(args)
    ds = Dataset(X)
    del X  # ds holds its own copy, so the fit holds the points once
    multi = args.command == "multifit"
    if multi:
        spec = ClassSpec(fractions=_parse_list(args.fractions, float, "fractions"))
    t0 = time.perf_counter()
    res = peel(ds, spec, p) if multi else recognize(ds, p)
    print(f"millis={(time.perf_counter() - t0) * 1e3:.3f}", file=sys.stderr)
    if multi:
        doc = {"classes": [_ball_doc(r, size=int(r.inliers.shape[0])) for r in res],
               "fractions": list(spec.fractions)}
    else:
        doc = _ball_doc(res, candidates_evaluated=int(res.candidates_evaluated))
    return _dump_json({**doc, "params_echo": _echo(p, ds.n)})


def _match_classes(preds, labels):
    """(pred, label, true) for each fitted class's inlier set pred, in
    order: the unmatched true label >= 1 whose rows, true, overlap pred
    most, the smaller label on a tie (max keeps the first maximum), or
    None and no rows once every label is matched."""
    free = {int(lab): np.flatnonzero(labels == lab) for lab in np.unique(labels) if lab >= 1}
    out = []
    for pred in preds:
        lab = max(free, key=lambda j: np.intersect1d(pred, free[j]).size, default=None)
        out.append((pred, lab, free.pop(lab, np.empty(0, dtype=np.int64))))
    return out


def cmd_eval(args) -> str:
    text = _read_text(args.result)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeboError(f"{args.result}: bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MeboError(f"{args.result}: expected a JSON object at the top level")
    multi = "classes" in doc  # a fit result is read as one class
    records = doc["classes"] if multi else [doc]
    if not isinstance(records, list) or not records:
        raise MeboError(f'{args.result}: "classes" must be a nonempty list')
    where = [f"{args.result}: class {j}: " if multi else f"{args.result}: "
             for j in range(1, len(records) + 1)]
    for w, rec in zip(where, records):
        if not isinstance(rec, dict) or "inliers" not in rec:
            raise MeboError(f'{w}no "inliers" list')
    labels = _load_csv(args.labels, int)
    if labels.min() < 0:
        raise MeboError(f"{args.labels}: labels must be >= 0, got {labels.min()}")
    n = labels.shape[0]
    preds = [as_index_set(w + "inlier", rec["inliers"], n) for w, rec in zip(where, records)]
    if multi:
        per_class = [{"matched_label": lab, **f1(pred, true, n)._asdict()}
                     for pred, lab, true in _match_classes(preds, labels)]
        out = {
            "classes": per_class,
            "average_f1": sum(c["f1"] for c in per_class) / len(per_class),
            "n": int(n),
        }
    else:
        pred = preds[0]
        true = np.flatnonzero(labels >= 1)
        out = {
            **f1(pred, true, n)._asdict(),
            "empty_prediction": pred.size == 0,
            "predicted_count": int(pred.size),
            "true_count": int(true.size),
            "n": int(n),
        }
    return _dump_json(out)


def cmd_bench(args) -> str:
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
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mebo", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic dataset and its labels")
    kinds = gen.add_subparsers(dest="kind", required=True)
    # each kind takes only the flags it reads, so a stray one is refused
    for kind, text in (("toy2d", "10000 points in the plane"),
                       ("highdim", "one ball of inliers in d dimensions"),
                       ("multiclass", "one ball per inlier class")):
        g = kinds.add_parser(kind, help=text)
        if kind != "toy2d":
            g.add_argument("--n", type=int, default=20000)
            g.add_argument("--d", type=int, default=100)
            g.add_argument("--gamma", type=float, default=0.2)
        if kind == "multiclass":
            g.add_argument("--fractions", type=str, default="0.3,0.3,0.3",
                           help="comma-separated class fractions")
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
    mf.set_defaults(fn=cmd_fit)

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
    made = []  # the output files this call created
    try:
        # refused before the work; append mode truncates nothing
        for path in _outputs(args):
            if not os.path.lexists(path):
                made.append(path)
            open(path, "a").close()
        text = args.fn(args)  # None from gen, which writes its own files
        if text is not None and args.out:
            Path(args.out).write_text(text)
        elif text is not None:
            sys.stdout.write(text)
        return 0
    except MeboError as exc:
        print(f"mebo: error: {exc}", file=sys.stderr)
        code = 1
    except OSError as exc:
        # the one place a file that cannot be read or written is reported
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"mebo: error: {where}{exc.strerror or exc}", file=sys.stderr)
        code = 2
    for path in made:  # a failed command leaves no empty or partial file behind
        Path(path).unlink(missing_ok=True)
    return code


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
