"""Record the golden CLI corpus: ``python tests/golden/make.py`` writes ``cli.jsonl``.

Each line is one invocation of ``nsforge``: its argv, the input documents it
reads (``files``, by the relative name the argv uses; a string value is
written verbatim, any other value as its JSON text), the stdin document or
null, and what it answered: the exit code, the stream (stdout for exit 0
and 1, stderr for 2) and the exact bytes.  ``tests/test_golden.py`` replays
every line in-process through ``invoke``, which is also what records it, so
a change to any answer's bytes or exit code fails the replay.  Regenerate
only for a deliberate contract change, and name the lines that changed.

argparse's own messages (the ``Usage`` lines) are the running interpreter's;
the corpus was recorded with Python 3.11.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from nsforge import cli, jsonio  # noqa: E402
from test_kernel_pins import divisor_chains  # noqa: E402


@contextmanager
def _workdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def invoke(argv, files, stdin, workdir):
    """Run one invocation in ``workdir``: (exit code, stream, bytes)."""
    for name, doc in files.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    old_stdin, budget = sys.stdin, os.environ.pop("NSFORGE_BUDGET", None)
    sys.stdin = io.StringIO("" if stdin is None else json.dumps(stdin))
    try:
        with _workdir(workdir):
            result = cli.run(list(argv))
    finally:
        sys.stdin = old_stdin
        if budget is not None:
            os.environ["NSFORGE_BUDGET"] = budget
        for name in files:
            (Path(workdir) / name).unlink()
    stream = "stderr" if result.status == "error" else "stdout"
    return result.exit_code, stream, jsonio.dumps(result.payload)


def _form(n, coeffs):
    return {"n": n, "coeffs": [{"i": i, "j": j, "a": a} for (i, j), a in coeffs.items()]}


ETA0 = _form(4, {(3, 8): 1, (3, 7): -1, (2, 5): 1, (2, 6): -1,
                 (1, 6): 1, (4, 7): 1, (1, 5): -1, (4, 8): -1})
SQUARE = _form(2, {(1, 2): 1, (3, 4): 1})  # primitive, fails the profile
UNIT = _form(2, {(1, 2): -1, (1, 3): -1, (1, 4): -1, (2, 3): -1, (2, 4): -1, (3, 4): 1})  # (2, 1), N^2 != N
THETA2 = _form(2, {(1, 3): -1, (2, 4): -1})
ELLIPTIC = _form(2, {(1, 3): -1})  # vanishes exactly on diag(i, 2i)
DOUBLED = _form(2, {(1, 3): -2})
ZERO = _form(2, {})
DIAG = {"n": 2, "backend": "exact", "entries": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "2"]]]}
FLOAT_DIAG = {"n": 2, "backend": "float",
              "entries": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}
GENERIC4 = {"n": 4, "backend": "float", "entries": [
    [[0.1 * (i + 1) * (j + 1), 1.9 if i == j else 0.07] for j in range(4)] for i in range(4)]}
ONE = {"n": 1, "backend": "exact", "entries": [[["0", "1"]]]}
GLUE = {"u": 1, "type": [1], "tauX": ONE, "tauY": ONE, "f": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]}
DATUM = {"a": 1, "b": 3, "c": 0, "d": 0, "e": 0, "m": 3}


def cases():
    """Every (argv, files, stdin) of the corpus, in a fixed order."""
    out = []

    def add(argv, files=None, stdin=None):
        out.append((list(argv), dict(files or {}), stdin))

    def answer(argv, files=None):
        with tempfile.TemporaryDirectory() as tmp:
            return json.loads(invoke(argv, files or {}, None, tmp)[2])

    # witness for every type with n <= 4 and divisors <= 4; check, norm, analyze,
    # witness --in and humbert (n = 2) on a seeded act image of each witness class
    for n in range(2, 5):
        for u in range(1, n // 2 + 1):
            for typ in divisor_chains(u, 4):
                argv = ["witness", "--n", str(n), "--u", str(u), "--type", ",".join(map(str, typ))]
                add(argv)
                eta = answer(argv)["eta"]
                seed = ["--seed", str(len(out)), "--word-length", "6"]
                add(["act", "--in", "e.json"] + seed, {"e.json": eta})
                moved = answer(["act", "--in", "e.json"] + seed, {"e.json": eta})["eta"]
                for command in ("check", "norm", "analyze", "witness"):
                    add([command, "--in", "m.json"], {"m.json": moved})
                if n == 2:
                    add(["humbert", "--in", "m.json"], {"m.json": moved})

    # the n = 2 enum grid at bound 1, a few bound-2 walks, typed and idempotent enums
    for u in (1, 2):
        for d in (1, 2, 3):
            add(["enum", "--n", "2", "--u", str(u), "--d", str(d), "--bound", "1"])
    add(["enum", "--n", "2", "--u", "2", "--d", "3", "--bound", "2"])
    for u, d, typ in [(1, 1, "1"), (1, 2, "2"), (1, 3, "3"), (2, 1, "1,1"), (2, 2, "1,2"),
                      (2, 2, "2,2"), (2, 3, "1,3")]:
        add(["enum", "--n", "2", "--u", str(u), "--d", str(d), "--bound", "1", "--type", typ])
    add(["enum", "--n", "2", "--u", "1", "--d", "2", "--bound", "2", "--type", "2"])
    for u, d, bound in [(1, 2, 1), (2, 1, 2), (2, 2, 1)]:
        spec = {"n": 2, "u": u, "d": d, "bound": bound, "require_idempotent": True}
        add(["enum", "--in", "s.json"], {"s.json": spec})
    add(["enum", "--n", "2", "--u", "2", "--d", "2", "--bound", "2", "--jobs", "2"])

    # exact and float scans on two witness periods, and one n = 3 exact scan
    taus = {n: answer(["witness", "--n", str(n), "--u", "1", "--type", "2"])["tau"] for n in (2, 3)}
    for tau in (taus[2], DIAG):
        for u, d, bound in [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1)]:
            for backend in ("exact", "float"):
                add(["scan", "--tau", "t.json", "--u", str(u), "--d", str(d), "--bound", str(bound),
                     "--backend", backend], {"t.json": tau})
    add(["scan", "--tau", "t.json", "--u", "1", "--d", "2", "--bound", "1"], {"t.json": taus[3]})
    add(["scan", "--tau", "t.json", "--u", "1", "--d", "2", "--bound", "2", "--backend", "float",
         "--jobs", "2"], {"t.json": DIAG})

    # each subcommand at every exit code it reaches
    eta0 = {"e.json": ETA0}
    add(["profile", "--in", "e.json"], eta0)
    add(["profile", "--in", "-"], stdin=SQUARE)
    add(["check", "--in", "e.json"], eta0)
    add(["check", "--in", "-"], stdin=SQUARE)
    add(["check", "--in", "e.json"], {"e.json": THETA2})
    add(["check", "--in", "e.json"], {"e.json": DOUBLED})
    add(["check", "--in", "e.json"], {"e.json": ZERO})
    add(["norm", "--in", "e.json"], eta0)
    add(["norm", "--in", "e.json", "--u", "2", "--d", "2"], eta0)
    for u, d in [("1", "2"), ("0", "2"), ("5", "2"), ("2", "0")]:
        add(["norm", "--in", "e.json", "--u", u, "--d", d], eta0)
    add(["norm", "--in", "e.json", "--u", "1"], eta0)
    add(["norm", "--in", "e.json"], {"e.json": SQUARE})
    add(["norm", "--in", "e.json"], {"e.json": UNIT})
    add(["norm", "--in", "e.json", "--u", "1", "--d", "4"], eta0)
    add(["analyze", "--in", "e.json"], eta0)
    add(["analyze", "--in", "e.json"], {"e.json": SQUARE})
    add(["analytic", "--in", "e.json", "--tau", "t.json"], {"e.json": ELLIPTIC, "t.json": DIAG})
    add(["analytic", "--in", "e.json", "--tau", "t.json", "--tol", "0"],
        {"e.json": ELLIPTIC, "t.json": FLOAT_DIAG})
    add(["analytic", "--in", "e.json", "--tau", "t.json", "--backend", "float"],
        {"e.json": ELLIPTIC, "t.json": DIAG})
    add(["analytic", "--in", "e.json", "--tau", "t.json"], {"e.json": ETA0, "t.json": GENERIC4})
    add(["analytic", "--in", "e.json", "--tau", "t.json"], {"e.json": THETA2, "t.json": DIAG})
    add(["analytic", "--in", "e.json"], {"e.json": ELLIPTIC})
    add(["analytic", "--in", "e.json", "--tau", "t.json", "--backend", "exact"],
        {"e.json": ELLIPTIC, "t.json": FLOAT_DIAG})
    add(["analytic", "--in", "e.json", "--tau", "t.json", "--tol=-1"],
        {"e.json": ELLIPTIC, "t.json": FLOAT_DIAG})
    add(["analytic", "--in", "e.json", "--tau", "t.json"],
        {"e.json": ELLIPTIC, "t.json": {"n": 1, "backend": "exact", "entries": [[["1/0", "1"]]]}})
    add(["analytic", "--in", "e.json", "--tau", "t.json"], {"e.json": ETA0, "t.json": [[["0", "1"]]]})
    add(["analytic", "--in", "e.json", "--tau", "t.json"],
        {"e.json": ELLIPTIC, "t.json": {"n": 2, "backend": "exact",
                                        "entries": [[["0", "-1"], ["0", "0"]], [["0", "0"], ["0", "2"]]]}})
    add(["relations", "--in", "e.json"], eta0)
    add(["relations", "--in", "e.json"], {"e.json": ELLIPTIC})
    add(["relations", "--in", "e.json"], {"e.json": {"n": 2}})
    add(["glue", "--in", "g.json"], {"g.json": GLUE})
    add(["glue", "--in", "g.json"], {"g.json": dict(GLUE, f=[[2, 0], [0, 1]])})
    add(["glue", "--in", "g.json"], {"g.json": dict(GLUE, type=[0])})
    add(["glue", "--in", "g.json"], {"g.json": dict(GLUE, f=[[1]])})
    add(["witness", "--in", "e.json"], eta0)
    add(["witness", "--in", "e.json"], {"e.json": SQUARE})
    add(["witness", "--in", "e.json"], {"e.json": UNIT})
    add(["witness", "--in", "e.json"], {"e.json": DOUBLED})
    add(["witness", "--n", "2", "--u", "1", "--type", "1,2"])
    add(["witness", "--n", "3", "--u", "2", "--type", "1,2"])
    add(["witness", "--n", "2", "--u", "1", "--type", "x"])
    add(["witness", "--n", "2", "--u", "1"])
    # --n 0, --u 0 and --type "" reach standard_witness's own checks
    add(["witness", "--n", "0", "--u", "1", "--type", "1"])
    add(["witness", "--n", "2", "--u", "0", "--type", "1"])
    add(["witness", "--n", "2", "--u", "1", "--type", ""])
    add(["witness", "--in", "e.json", "--type", "2"], eta0)
    add(["scan", "--u", "1", "--d", "1", "--bound", "1"])
    add(["scan", "--tau", "t.json", "--u", "1", "--d", "1"], {"t.json": DIAG})
    add(["scan", "--tau", "t.json", "--u", "3", "--d", "1", "--bound", "1"], {"t.json": DIAG})
    add(["scan", "--tau", "t.json", "--u", "1", "--d", "1", "--bound", "1", "--tol", "nan"],
        {"t.json": FLOAT_DIAG})
    add(["enum", "--n", "2", "--u", "1", "--d", "1"])
    add(["enum", "--n", "2", "--u", "1", "--d", "1", "--bound", "1", "--type", "2"])
    add(["enum", "--n", "3", "--u", "1", "--d", "2", "--bound", "1", "--type", "2"])
    add(["enum", "--in", "s.json", "--n", "2"], {"s.json": {"n": 2, "u": 2, "d": 1, "bound": 1}})
    add(["enum", "--in", "s.json"], {"s.json": {"n": 2, "u": 2, "d": 1, "bound": 1,
                                                "require_idempotent": "yes"}})
    add(["humbert", "--in", "s.json"], {"s.json": DATUM})
    add(["humbert", "--in", "s.json"], {"s.json": dict(DATUM, m=2)})
    add(["humbert", "--in", "s.json"], {"s.json": dict(DATUM, a=2, b=2)})
    add(["humbert", "--in", "e.json"], {"e.json": THETA2})
    add(["humbert", "--in", "e.json"], eta0)
    add(["act", "--in", "a.json"], {"a.json": {"eta": ETA0, "S": [[int(i == j) for j in range(8)]
                                                                 for i in range(8)]}})
    add(["act", "--in", "e.json", "--s", "s.json"],
        {"e.json": _form(1, {(1, 2): 1}), "s.json": {"S": [[0, 1], [-1, 0]]}})
    add(["act", "--in", "e.json", "--s", "s.json"],
        {"e.json": _form(1, {(1, 2): 1}), "s.json": {"S": [[2, 0], [0, 2]]}})
    add(["act", "--in", "e.json", "--s", "s.json"],
        {"e.json": _form(1, {(1, 2): 1}), "s.json": {"S": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}})
    add(["act", "--in", "e.json", "--word-length", "-1"], eta0)

    # malformed documents and unreadable inputs
    add(["profile", "--in", "missing.json"])
    add(["profile", "--in", "."])
    add(["profile"])
    add(["profile", "--in", "b.json"], {"b.json": "{not json"})
    add(["profile", "--in", "b.json"], {"b.json": "[1, 2]"})
    add(["profile", "--in", "b.json"], {"b.json": {"coeffs": []}})
    add(["profile", "--in", "b.json"], {"b.json": {"n": 2}})
    add(["profile", "--in", "b.json"], {"b.json": {"n": 2, "coeffs": [{"i": 1, "j": 9, "a": 1}]}})
    add(["profile", "--in", "b.json"], {"b.json": {"n": 2, "coeffs": [{"i": 1, "j": 2, "a": 0.5}]}})
    add(["profile", "--in", "b.json"], {"b.json": {"n": 0, "coeffs": []}})
    add(["profile", "--in", "b.json"], {"b.json": {"n": 1, "matrix": [[0, 1], [1, 0]]}})
    add(["check", "--in", "b.json"], {"b.json": dict(ETA0, matrix=[[0] * 8 for _ in range(8)])})

    # every kind of Usage refusal
    for argv in ([], ["frobnicate"], ["check", "--in", "e.json", "--u", "3"], ["enum", "--n", "x"],
                 ["analytic", "--in", "e.json", "--tau", "t.json", "--tol", "x"],
                 ["analytic", "--in", "e.json", "--tau", "t.json", "--backend", "quad"],
                 ["profile", "--in"], ["analytic", "--in", "e.json", "--t", "t.json"],
                 ["scan", "--in", "e.json"], ["profile", "--in", "e.json", "extra"],
                 ["act", "--in", "e.json", "--seed", "1.5"]):
        add(argv, eta0 if "e.json" in argv else None)
    return out


def main():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, files, stdin in cases():
            code, stream, text = invoke(argv, files, stdin, tmp)
            lines.append(json.dumps({"argv": argv, "files": files, "stdin": stdin, "exit": code,
                                     "stream": stream, "bytes": text}, sort_keys=True))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} invocations to {CORPUS}")


if __name__ == "__main__":
    main()
