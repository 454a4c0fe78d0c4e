"""End-to-end CLI behavior through subprocess: files in, JSON/CSV out,
exit codes and diagnostics on bad input."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mebo import f1


def run(*argv, **kw):
    return subprocess.run([sys.executable, "-m", "mebo.cli", *argv],
                          capture_output=True, text=True, **kw)


def write_planted(path, n_in=90, n_out=30, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(n_in, d)),
                   rng.normal(size=(n_out, d)) * 2 + 15.0])
    np.savetxt(path, X, fmt="%.10g", delimiter=",")
    labels = np.r_[np.ones(n_in, dtype=int), np.zeros(n_out, dtype=int)]
    return X, labels


# ----------------------------------------------------------------- gen


def test_gen_toy2d_files(tmp_path):
    out = tmp_path / "pts.csv"
    r = run("gen", "toy2d", "--seed", "3", "--out", str(out))
    assert r.returncode == 0
    assert "wrote" in r.stderr
    pts = np.loadtxt(out, delimiter=",")
    assert pts.shape == (10000, 2)
    labels = np.loadtxt(tmp_path / "pts.labels.csv", dtype=int)
    assert labels.shape == (10000,)
    assert (labels == 1).sum() == 6000
    assert set(np.unique(labels)) == {0, 1}


def test_gen_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("gen", "highdim", "--n", "200", "--d", "6", "--seed", "9",
               "--out", str(a)).returncode == 0
    assert run("gen", "highdim", "--n", "200", "--d", "6", "--seed", "9",
               "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.labels.csv").read_bytes() == \
           (tmp_path / "b.labels.csv").read_bytes()
    c = tmp_path / "c.csv"
    run("gen", "highdim", "--n", "200", "--d", "6", "--seed", "10", "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_gen_highdim_shape(tmp_path):
    out = tmp_path / "h.csv"
    r = run("gen", "highdim", "--n", "100", "--d", "5", "--gamma", "0.3",
            "--out", str(out))
    assert r.returncode == 0
    assert np.loadtxt(out, delimiter=",").shape == (100, 5)
    labels = np.loadtxt(tmp_path / "h.labels.csv", dtype=int)
    assert (labels == 0).sum() == 30


def test_gen_multiclass_bad_fractions(tmp_path):
    r = run("gen", "multiclass", "--n", "100", "--d", "4", "--gamma", "0.2",
            "--fractions", "0.5,0.5", "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 1
    assert r.stderr == "mebo: error: fractions plus gamma must equal 1, got 1.2\n"


@pytest.mark.parametrize("argv", [["toy2d", "--n", "50", "--d", "7"],
                                  ["highdim", "--fractions", "9,9"]], ids=" ".join)
def test_gen_refuses_flags_its_kind_does_not_read(tmp_path, argv):
    # each kind takes only the flags it reads; a stray one is refused,
    # with the kind's usage, before any file is written
    r = run("gen", *argv, "--out", str(tmp_path / "t.csv"))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith(f"usage: mebo gen {argv[0]} ")
    assert r.stderr.endswith(
        f"mebo gen {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_checks_its_labels_file_first(tmp_path):
    # the labels path is a directory: refused before the points are made,
    # so a points file already there keeps its bytes and a new one is removed
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"old content\n")
    for out in (old, new):
        labels = tmp_path / (out.stem + ".labels.csv")
        labels.mkdir()
        r = run("gen", "toy2d", "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == f"mebo: error: {labels}: Is a directory\n"
    assert old.read_bytes() == b"old content\n"
    assert not new.exists()


# ----------------------------------------------------------------- fit


def test_fit_json_document(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    r = run("fit", str(pts), "--gamma", "0.25", "--seed", "1")
    assert r.returncode == 0
    assert r.stderr.startswith("millis=")
    doc = json.loads(r.stdout)
    assert sorted(doc) == ["candidates_evaluated", "center", "inliers",
                           "params_echo", "radius", "score"]
    echo = doc["params_echo"]
    assert echo["gamma"] == 0.25
    assert echo["derived"]["m"] == len(doc["inliers"])
    assert echo["derived"]["k"] + echo["derived"]["m"] == 120
    assert len(doc["center"]) == 3
    assert doc["radius"] > 0
    # planted inliers occupy the first 90 rows; a sane fit stays there
    assert max(doc["inliers"]) < 90


def test_fit_byte_identical_and_thread_invariant(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    base = run("fit", str(pts), "--gamma", "0.25", "--seed", "2")
    again = run("fit", str(pts), "--gamma", "0.25", "--seed", "2")
    threaded = run("fit", str(pts), "--gamma", "0.25", "--seed", "2",
                   "--threads", "4")
    assert base.returncode == again.returncode == threaded.returncode == 0
    assert base.stdout == again.stdout == threaded.stdout
    out = tmp_path / "r.json"
    to_file = run("fit", str(pts), "--gamma", "0.25", "--seed", "2",
                  "--out", str(out))
    assert to_file.returncode == 0
    assert to_file.stdout == ""
    assert out.read_text() == base.stdout


def test_fit_byte_identical_at_any_blas_thread_count(tmp_path):
    # the criterion-9 fixture, and a wider set whose distance GEMMs are
    # big enough for OpenBLAS to split them over threads
    small = tmp_path / "small.csv"
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(90, 3)),
                   rng.normal(size=(30, 3)) * 2 + 15.0])
    np.savetxt(small, X, fmt="%.10g", delimiter=",")
    wide = tmp_path / "wide.csv"
    write_planted(wide, n_in=1500, n_out=500, d=40, seed=3)
    for argv in (["fit", str(small), "--gamma", "0.25", "--seed", "5"],
                 ["fit", str(wide), "--gamma", "0.25", "--seed", "1",
                  "--forest", "1", "--rounds", "1"]):
        outs = []
        for threads in ("1", "2"):
            r = run(*argv, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert r.returncode == 0
            outs.append(r.stdout)
        assert outs[0] == outs[1]


def test_fit_epsilon_echo(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    r = run("fit", str(pts), "--gamma", "0.1", "--epsilon", "0.5")
    doc = json.loads(r.stdout)
    assert doc["params_echo"]["epsilon"] == 0.5
    assert doc["params_echo"]["derived"]["h"] == 5
    assert doc["params_echo"]["meb_iters"] == 4


# ---------------------------------------------------------------- eval


def test_eval_single_matches_library(tmp_path):
    pts, labels_file = tmp_path / "p.csv", tmp_path / "p.labels.csv"
    X, labels = write_planted(pts)
    np.savetxt(labels_file, labels, fmt="%d")
    res = tmp_path / "r.json"
    assert run("fit", str(pts), "--gamma", "0.25", "--seed", "0",
               "--out", str(res)).returncode == 0
    r = run("eval", str(res), str(labels_file))
    assert r.returncode == 0
    got = json.loads(r.stdout)
    pred = json.loads(res.read_text())["inliers"]
    want = f1(pred, np.flatnonzero(labels == 1), len(labels))
    assert got["f1"] == pytest.approx(want.f1, abs=1e-12)
    assert got["precision"] == pytest.approx(want.precision, abs=1e-12)
    assert got["recall"] == pytest.approx(want.recall, abs=1e-12)
    assert got["empty_prediction"] is False
    assert got["n"] == 120
    assert got["true_count"] == 90
    assert got["predicted_count"] == len(pred)


def test_eval_bad_json(tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text("{nope")
    labels = tmp_path / "l.csv"
    np.savetxt(labels, np.ones(5, dtype=int), fmt="%d")
    r = run("eval", str(bad), str(labels))
    assert r.returncode == 1
    assert "bad JSON" in r.stderr


@pytest.mark.parametrize("doc", [
    {"classes": []}, [1, 2], {"classes": [{"size": 3}]},
    {"inliers": ["a"]}, {"inliers": [1.5]}, {"inliers": 3},
    {"classes": [{"inliers": ["x"]}]}, {"inliers": [10**30]},
    {"inliers": [[0, 1]]}, {"inliers": [[0], [1, 2]]}, {"inliers": [5]},
    {"classes": [{"inliers": [0]}, {"inliers": [-1]}]}, {"inlier": [0, 2]},
])
def test_eval_malformed_result(tmp_path, doc):
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(doc))
    labels = tmp_path / "l.csv"
    np.savetxt(labels, np.ones(5, dtype=int), fmt="%d")
    r = run("eval", str(bad), str(labels))
    assert r.returncode == 1
    assert r.stderr.startswith(f"mebo: error: {bad}: ")
    assert "Traceback" not in r.stderr


# loadtxt loads the first text; it refuses the second for its 1_0 cell
# before the column count is looked at
@pytest.mark.parametrize("text", ["1,1\n0,1\n1,0\n", "1, 1_0\n0,1\n"])
def test_eval_labels_with_several_columns(tmp_path, text):
    res = tmp_path / "r.json"
    res.write_text(json.dumps({"inliers": [0, 1]}))
    labels = tmp_path / "l.csv"
    labels.write_text(text)
    r = run("eval", str(res), str(labels))
    assert r.returncode == 1
    error = ("row 1, column 2: not a valid number: '1_0'" if "1_0" in text
             else "expected one label per row, got 2 columns")
    assert r.stderr == f"mebo: error: {labels}: {error}\n"
    assert r.stdout == ""


def test_eval_refuses_negative_labels(tmp_path):
    res, labels = tmp_path / "r.json", tmp_path / "l.csv"
    res.write_text(json.dumps({"inliers": [0, 1]}))
    labels.write_text("1\n-2\n0\n")
    r = run("eval", str(res), str(labels))
    assert r.returncode == 1
    assert r.stderr == f"mebo: error: {labels}: labels must be >= 0, got -2\n"
    assert r.stdout == ""


def test_eval_empty_prediction(tmp_path):
    res, labels = tmp_path / "r.json", tmp_path / "l.csv"
    res.write_text(json.dumps({"inliers": []}))
    labels.write_text("1\n1\n1\n0\n0\n")
    r = run("eval", str(res), str(labels))
    assert (r.returncode, r.stderr) == (0, "")
    got = json.loads(r.stdout)
    assert got["empty_prediction"] is True
    assert got == {"empty_prediction": True, "precision": 0.0, "recall": 0.0, "f1": 0.0,
                   "predicted_count": 0, "true_count": 3, "n": 5}


# ------------------------------------------------------------ multifit


def test_multifit_single_class_equals_fit(tmp_path):
    pts = tmp_path / "p.csv"
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(size=(770, 4)),
                   rng.normal(size=(230, 4)) * 3 + 20.0])
    np.savetxt(pts, X, fmt="%.10g", delimiter=",")
    # ceil(0.77 * 1000) = 770 = n - k at gamma 0.2, so both commands
    # chase the same coverage target
    fit = run("fit", str(pts), "--gamma", "0.2", "--seed", "4")
    multi = run("multifit", str(pts), "--fractions", "0.77",
                "--gamma", "0.2", "--seed", "4")
    assert fit.returncode == 0 and multi.returncode == 0
    fd = json.loads(fit.stdout)
    md = json.loads(multi.stdout)
    assert md["fractions"] == [0.77]
    (cls,) = md["classes"]
    assert cls["center"] == fd["center"]
    assert cls["radius"] == fd["radius"]
    assert cls["inliers"] == fd["inliers"]
    assert cls["score"] == fd["score"]
    assert cls["size"] == 770


def test_multifit_eval_two_classes(tmp_path):
    pts, labels_file = tmp_path / "p.csv", tmp_path / "p.labels.csv"
    a = np.tile([0.0, 0.0], (40, 1))
    b = np.tile([100.0, 0.0], (40, 1))
    np.savetxt(pts, np.vstack([a, b]), fmt="%.10g", delimiter=",")
    np.savetxt(labels_file, np.r_[np.full(40, 1), np.full(40, 2)], fmt="%d")
    res = tmp_path / "r.json"
    r = run("multifit", str(pts), "--fractions", "0.5,0.5", "--gamma", "0.0",
            "--seed", "0", "--out", str(res))
    assert r.returncode == 0
    ev = run("eval", str(res), str(labels_file))
    assert ev.returncode == 0
    got = json.loads(ev.stdout)
    assert got["average_f1"] == 1.0
    assert sorted(c["matched_label"] for c in got["classes"]) == [1, 2]
    assert all(c["f1"] == 1.0 for c in got["classes"])


def test_eval_matches_each_class_once(tmp_path):
    # class 1 overlaps labels 1 and 2 equally and takes the smaller; class
    # 2 gets the label left (2); class 3 finds none left, and scores 0
    labels_file, res = tmp_path / "l.csv", tmp_path / "r.json"
    np.savetxt(labels_file, [1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0], fmt="%d")
    res.write_text(json.dumps({"classes": [{"inliers": [0, 1, 4, 5]},
                                           {"inliers": [4, 5, 6]},
                                           {"inliers": [8, 9]}]}))
    r = run("eval", str(res), str(labels_file))
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert [c["matched_label"] for c in got["classes"]] == [1, 2, None]
    assert [c["f1"] for c in got["classes"]] == pytest.approx([0.5, 6 / 7, 0.0], abs=1e-12)
    assert got["average_f1"] == pytest.approx((0.5 + 6 / 7) / 3, abs=1e-12)
    assert got["n"] == 12


def test_multifit_infeasible_fractions(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    r = run("multifit", str(pts), "--fractions", "0.6,0.6", "--gamma", "0.2")
    assert r.returncode == 1
    assert r.stderr == "mebo: error: class fractions plus outlier ratio exceed 1: 1.4\n"


# --------------------------------------------------------------- bench


def test_bench_csv_grid(tmp_path):
    r = run("bench", "--sizes", "300,600", "--dims", "4", "--runs", "2",
            "--warmup", "0", "--seed", "1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,d,runs,median_ms"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (300, 600)):
        cells = line.split(",")
        assert cells[:3] == [str(n), "4", "2"]
        assert float(cells[3]) > 0


# -------------------------------------------------------- pinned output


def _stripped_digest(text):
    """sha256 of a result's JSON with each `score` removed, and the
    scores: their last bits come from SIMD sums, so they are compared
    within a tolerance.  The text must be the sorted, indented dump."""
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    recs = doc["classes"] if "classes" in doc else [doc]
    scores = [rec.pop("score") for rec in recs]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, indent=2).encode()).hexdigest(), scores


def test_command_output_pinned(tmp_path):
    # criterion 9's 120x3 input, and a two-class set as `mebo gen` writes it
    pts, pts_labels = tmp_path / "p.csv", tmp_path / "p.labels.csv"
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(90, 3)),
                   rng.normal(size=(30, 3)) * 2 + 15.0])
    np.savetxt(pts, X, fmt="%.10g", delimiter=",")
    np.savetxt(pts_labels, np.r_[np.ones(90, dtype=int), np.zeros(30, dtype=int)], fmt="%d")
    multi = tmp_path / "m.csv"
    assert run("gen", "multiclass", "--n", "600", "--d", "5", "--fractions", "0.45,0.45",
               "--gamma", "0.1", "--seed", "4", "--out", str(multi)).returncode == 0

    def both(*argv):
        """stdout of the command, checked equal to the bytes it writes to --out"""
        r = run(*argv)
        assert r.returncode == 0
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)).returncode == 0
        assert out.read_bytes() == r.stdout.encode()
        return r.stdout

    fit = both("fit", str(pts), "--gamma", "0.25", "--seed", "5")
    digest, scores = _stripped_digest(fit)
    assert digest == "13d14f2d2bcdd3801fb9b8eea9d6f956f0f5069b8a180c48361e99cbd90fd783"
    assert scores == pytest.approx([2.6669076233581586], rel=1e-12)
    mfit = both("multifit", str(multi), "--fractions", "0.45,0.45", "--gamma", "0.1",
                "--seed", "4")
    digest, scores = _stripped_digest(mfit)
    assert digest == "3e9ead41bdd9cca154b196600dd731b7a920ed5c49b9d7772a253907a4c7d7cb"
    assert scores == pytest.approx([4.723254108723305, 5.214047360716016], rel=1e-12)

    for text, labels, want in (
            (fit, pts_labels, "467316e7deac1f388b5876d4ea5e35750d97995c2fb04b1b045d76dd0d2c9c2c"),
            (mfit, tmp_path / "m.labels.csv",
             "da07e5be7ef54d6991e8ae3ed69a0a30c184114eee75fc5aae8682c0df204ae3")):
        res = tmp_path / "r.json"
        res.write_text(text)
        ev = both("eval", str(res), str(labels))
        assert hashlib.sha256(ev.encode()).hexdigest() == want

    # the timing cell differs from run to run
    argv = ["bench", "--sizes", "300", "--dims", "4", "--runs", "1", "--warmup", "0"]
    r = run(*argv)
    out = tmp_path / "bench.csv"
    assert r.returncode == 0 and run(*argv, "--out", str(out)).returncode == 0
    for text in (r.stdout, out.read_text()):
        header, row = text.splitlines()
        assert header == "n,d,runs,median_ms"
        assert row.split(",")[:3] == ["300", "4", "1"]


# ----------------------------------------------------------- bad input


def test_missing_points_file_exit_2(tmp_path):
    r = run("fit", str(tmp_path / "nope.csv"), "--gamma", "0.2")
    assert r.returncode == 2
    assert "mebo: error" in r.stderr


@pytest.mark.parametrize("command", ["gen", "fit", "multifit", "bench"])
def test_unwritable_out_exit_2(tmp_path, command):
    out = tmp_path / "missing" / "out.csv"
    pts = tmp_path / "p.csv"
    write_planted(pts)
    argv = {
        "gen": ["toy2d"],
        "fit": [str(pts), "--gamma", "0.25"],
        "multifit": [str(pts), "--fractions", "0.75", "--gamma", "0.25"],
        "bench": ["--sizes", "50", "--dims", "2", "--runs", "1"],
    }[command]
    r = run(command, *argv, "--out", str(out))
    assert r.returncode == 2
    assert r.stdout == ""
    # refused before the work: no timing or progress line comes first
    assert r.stderr == f"mebo: error: {out}: No such file or directory\n"


@pytest.mark.parametrize("command", ["gen", "fit", "eval", "bench"])
def test_empty_out_refused(tmp_path, command):
    argv = {
        "gen": ["toy2d"],
        "fit": [str(tmp_path / "p.csv"), "--gamma", "0.25"],
        "eval": [str(tmp_path / "r.json"), str(tmp_path / "l.csv")],
        "bench": ["--sizes", "50", "--dims", "2", "--runs", "1"],
    }[command]
    r = run(command, *argv, "--out", "")
    assert (r.returncode, r.stdout) == (1, "")
    # refused before the work: no input is read, no file is written
    assert r.stderr == "mebo: error: --out must name a file, got ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["bad_csv", "infeasible", "missing_points", "gen_invalid"])
def test_failed_command_leaves_no_new_out_file(tmp_path, case):
    pts = tmp_path / "p.csv"
    if case == "bad_csv":
        pts.write_text("1,2\n3,4,5\n")
    elif case == "infeasible":
        write_planted(pts)
    argv, code = {
        "bad_csv": (["fit", str(pts), "--gamma", "0.1"], 1),
        "infeasible": (["multifit", str(pts), "--fractions", "0.6,0.6", "--gamma", "0.2"], 1),
        "missing_points": (["fit", str(pts), "--gamma", "0.1"], 2),
        "gen_invalid": (["gen", "highdim", "--gamma", "2"], 1),
    }[case]
    out, labels = tmp_path / "r.json", tmp_path / "r.labels.json"
    r = run(*argv, "--out", str(out))
    assert r.returncode == code
    assert r.stderr.startswith("mebo: error: ")
    assert not out.exists() and not labels.exists()
    # a file that was there before the command keeps its bytes
    out.write_bytes(b"kept\n")
    r = run(*argv, "--out", str(out))
    assert r.returncode == code
    assert out.read_bytes() == b"kept\n"
    assert not labels.exists()


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--warmup", "-1"]])
def test_bench_bad_counts_exit_1(flags):
    r = run("bench", "--sizes", "50", "--dims", "2", *flags)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("mebo: error: ") and flags[0] in r.stderr


def test_bad_list_exit_1(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    for argv, message in [
            (["bench", "--sizes", "5,x"], "bad --sizes list: '5,x'"),
            (["multifit", str(pts), "--gamma", "0.1", "--fractions", "0.3,,0.3"],
             "bad fractions list: '0.3,,0.3'")]:
        r = run(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (1, "", f"mebo: error: {message}\n")


def test_bad_gamma_exit_1(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    r = run("fit", str(pts), "--gamma", "1.5")
    assert r.returncode == 1
    assert r.stderr == "mebo: error: gamma must be in [0, 1), got 1.5\n"


def test_unknown_flag_exit_1(tmp_path):
    pts = tmp_path / "p.csv"
    write_planted(pts)
    r = run("fit", str(pts), "--gamma", "0.2", "--bogus", "1")
    assert r.returncode == 1


def test_ragged_csv_diagnostic(tmp_path):
    # rows are lines of the file, comment and blank lines counted
    pts = tmp_path / "p.csv"
    for text, row in (("1,2\n3,4,5\n", 2), ("# c\n1,2\n\n3,4,5\n", 4)):
        pts.write_text(text)
        r = run("fit", str(pts), "--gamma", "0.2")
        assert r.returncode == 1
        assert r.stderr == f"mebo: error: {pts}: row {row} has 3 columns, expected 2\n"


# loadtxt refuses 1_0 and the fullwidth digit, which Python's float and int take
@pytest.mark.parametrize("cell", ["x", "1_0", "\uff11"])
@pytest.mark.parametrize("kind", ["points", "labels"])
def test_non_numeric_cell_diagnostic(tmp_path, kind, cell):
    path = tmp_path / "p.csv"
    result = tmp_path / "r.json"
    result.write_text('{"inliers": [0]}')
    if kind == "points":
        # rows are lines of the file, comment and blank lines counted
        cases = [(f"1,{cell}\n2,3\n", "row 1, column 2"),
                 (f"# head\n1,2\n\n3,{cell}\n", "row 4, column 2")]
    else:
        cases = [(f"1\n{cell}\n", "row 2, column 1")]
    for text, where in cases:
        path.write_text(text)
        argv = ["fit", path, "--gamma", "0.2"] if kind == "points" else ["eval", result, path]
        r = run(*map(str, argv))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"mebo: error: {path}: {where}: not a valid number: {cell!r}\n"


def test_empty_file_diagnostic(tmp_path):
    pts = tmp_path / "p.csv"
    pts.write_text("\n\n")
    r = run("fit", str(pts), "--gamma", "0.2")
    assert r.returncode == 1
    assert "no data rows" in r.stderr


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_comment_only_file_diagnostic(tmp_path, command):
    # loadtxt reads no rows here and would only warn
    path = tmp_path / "p.csv"
    path.write_text("#only\n")
    result = tmp_path / "r.json"
    result.write_text('{"inliers": [0]}')
    argv = ["fit", path, "--gamma", "0.2"] if command == "fit" else ["eval", result, path]
    r = run(*map(str, argv))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"mebo: error: {path}: no data rows\n"


def test_gamma_too_large_for_n(tmp_path):
    # k >= n leaves nothing to cover
    pts = tmp_path / "p.csv"
    np.savetxt(pts, np.eye(4), fmt="%g", delimiter=",")
    r = run("fit", str(pts), "--gamma", "0.9")
    assert r.returncode == 1
    assert r.stderr == ("mebo: error: (1+delta)*gamma = 1.035 must stay below 1, "
                        "otherwise no inliers remain\n")


def test_fit_overflowing_coordinates_exit_1(tmp_path):
    # sums of squared norms of these points pass the float64 maximum
    pts = tmp_path / "p.csv"
    X = np.random.default_rng(0).normal(size=(50, 3)) * 1e155
    np.savetxt(pts, X, fmt="%.10g", delimiter=",")
    r = run("fit", str(pts), "--gamma", "0.2")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("mebo: error: coordinates must be at most ")


@pytest.mark.parametrize("bad_arg", ["points", "result", "labels"])
def test_non_utf8_file_exit_1(tmp_path, bad_arg):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe1\x00\n\x00")  # UTF-16 text with a byte-order mark
    labels = tmp_path / "l.csv"
    np.savetxt(labels, np.ones(5, dtype=int), fmt="%d")
    result = tmp_path / "r.json"
    result.write_text('{"inliers": [0, 1]}')
    argv = {"points": ["fit", bad, "--gamma", "0.2"],
            "result": ["eval", bad, labels],
            "labels": ["eval", result, bad]}[bad_arg]
    r = run(*map(str, argv))
    assert r.returncode == 1
    assert r.stderr == f"mebo: error: {bad}: not UTF-8 text\n"
