"""Fuzz of the CLI's JSON inputs: every ``--in`` subcommand on generated and mutated documents.

Raw bytes go to every file option (``--in``, ``--tau``, ``--s``) as well: an
unreadable file is a RangeError and a file that is not JSON a DimensionMismatch.

Whatever the document, ``cli.run`` answers with exit code 0, 1 or 2, and an
exit 2 carries a JSON error whose code is one of the ``nsforge.errors`` codes
or ``Usage``: no wire format error escapes as a bare Python exception.  The
documents stay desk scale (n <= 4, bound <= 3, short lists), since a 2-form
with n = 10^6 allocates a (2n)^2 matrix.  The runs are derandomized, so the
suite sees the same documents every time.
"""

import copy
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nsforge import cli, errors, jsonio, random_symplectic, standard_witness, theta  # noqa: E402

CODES = {cls.code for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.NsforgeError)} | {"Usage"}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# replacement values: small integers (an 'n' or a 'bound' stays desk scale), the
# non-integral numbers an integer field must refuse, strings, booleans and containers
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                    st.sampled_from([2.9, 1.7, -0.5, 1e300, float("nan"), float("inf")]),
                    st.sampled_from(["", "2", "1/2", "a"]))
VALUES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from("nuabij"), kids, max_size=3),
                      max_leaves=5)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def mutate(data, doc):
    """Up to three edits, each replacing, wrapping in a list or dropping one node of ``doc``."""
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        kind = data.draw(st.sampled_from(("value", "wrap", "drop") if path else ("value", "wrap")))
        if not path:
            doc = data.draw(VALUES) if kind == "value" else [doc]
            continue
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(VALUES) if kind == "value" else [parent[path[-1]]]
    return doc


KNOWN_FORMS = [theta(n) for n in range(1, 5)] + [
    standard_witness(n, u, typ)[1] for n, u, typ in [(2, 1, (2,)), (3, 1, (3,)), (4, 2, (2, 2))]]


@st.composite
def form_docs(draw):
    """A 2-form document: a known class, or random coefficients or a random matrix."""
    kind = draw(st.sampled_from(("known", "coeffs", "matrix")))
    if kind == "known":
        return jsonio.two_form_to_json(draw(st.sampled_from(KNOWN_FORMS)))
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(1, 2 * n + 1) for j in range(i + 1, 2 * n + 1)]
    coeffs = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(-2, 2)), max_size=6))
    if kind == "coeffs":
        return {"n": n, "coeffs": [{"i": i, "j": j, "a": a} for (i, j), a in coeffs]}
    mat = [[0] * (2 * n) for _ in range(2 * n)]
    for (i, j), a in coeffs:
        mat[i - 1][j - 1], mat[j - 1][i - 1] = a, -a
    return {"n": n, "matrix": mat}


def _period_doc(draw, k):
    """An exact k x k period matrix document in the Siegel space."""
    entries = [[["0", "0"] for _ in range(k)] for _ in range(k)]
    for i in range(k):
        re = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from((2, 3, 4))))
        entries[i][i] = [str(re), str(draw(st.integers(1, 3)))]
        for j in range(i + 1, k):
            re = Fraction(draw(st.integers(-1, 1)), draw(st.sampled_from((2, 3, 5))))
            entries[i][j] = entries[j][i] = [str(re), "0"]
    return {"n": k, "backend": "exact", "entries": entries}


MARKINGS = {
    1: [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[1, 0], [1, 1]], [[2, 0], [0, 2]]],
    2: [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]],
}


@st.composite
def gluing_docs(draw):
    u = draw(st.integers(1, 2))
    v = draw(st.integers(u, 4 - u))
    typ = draw(st.sampled_from([[1], [2], [3]] if u == 1 else [[1, 1], [1, 2], [2, 2]]))
    return {"u": u, "type": typ, "tauX": _period_doc(draw, u), "tauY": _period_doc(draw, v),
            "f": draw(st.sampled_from(MARKINGS[u])), "g": draw(st.sampled_from(MARKINGS[u]))}


@st.composite
def enumeration_docs(draw):
    n = draw(st.integers(1, 4))
    doc = {"n": n, "u": draw(st.integers(1, n)), "d": draw(st.integers(1, 3)),
           "bound": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        doc["require_idempotent"] = draw(st.booleans())
    if draw(st.booleans()):
        doc["require_type"] = draw(st.lists(st.integers(1, 3), max_size=2))
    return doc


@st.composite
def datum_docs(draw):
    if draw(st.booleans()):
        return {"a": 1, "b": 3, "c": 0, "d": 0, "e": 0, "m": 3}
    return {k: draw(st.integers(-3, 3)) for k in "abcdem"}


@st.composite
def act_docs(draw):
    eta = draw(st.sampled_from(KNOWN_FORMS))
    s = [list(r) for r in random_symplectic(eta.n, draw(st.integers(0, 99)), 3).mat]
    return {"eta": jsonio.two_form_to_json(eta), "S": s}


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")

    def write_doc(name, doc):
        path = folder / name
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        return str(path)
    return write_doc


def assert_contract(argv):
    result = cli.run(argv)
    assert result.exit_code in (0, 1, 2), argv
    if result.exit_code == 2:
        assert result.payload["error"]["code"] in CODES, result.payload
    jsonio.dumps(result.payload)


FORM_COMMANDS = ["profile", "check", "norm", "analyze", "relations", "witness", "humbert", "act",
                 "analytic"]


@FUZZ
@given(data=st.data(), command=st.sampled_from(FORM_COMMANDS), doc=form_docs())
def test_two_form_documents(write, data, command, doc):
    argv = [command, "--in", write("in.json", mutate(data, doc))]
    if command == "analytic":
        tau = _period_doc(data.draw, data.draw(st.integers(1, 4)))
        argv += ["--tau", write("tau.json", mutate(data, tau))]
    assert_contract(argv)


@FUZZ
@given(data=st.data(), doc=gluing_docs())
def test_gluing_documents(write, data, doc):
    assert_contract(["glue", "--in", write("in.json", mutate(data, doc))])


@FUZZ
@given(data=st.data(), doc=enumeration_docs())
def test_enumeration_documents(write, data, doc):
    assert_contract(["enum", "--in", write("in.json", mutate(data, doc))])


@FUZZ
@given(data=st.data(), doc=datum_docs())
def test_singular_datum_documents(write, data, doc):
    assert_contract(["humbert", "--in", write("in.json", mutate(data, doc))])


@FUZZ
@given(data=st.data(), doc=act_docs(), separate=st.booleans())
def test_act_documents(write, data, doc, separate):
    if separate:  # the matrix from --s, the form alone from --in
        s_doc = mutate(data, {"S": doc.pop("S")})
        argv = ["act", "--in", write("in.json", mutate(data, doc["eta"])),
                "--s", write("s.json", s_doc)]
    else:
        argv = ["act", "--in", write("in.json", mutate(data, doc))]
    assert_contract(argv)


@pytest.mark.parametrize("command, doc", [
    ("enum", {"n": 2.9, "u": 1, "d": 1, "bound": 1}),
    ("enum", {"n": "2", "u": 1, "d": 1, "bound": 1}),
    ("enum", {"n": 2, "u": 1, "d": 1, "bound": 1, "require_idempotent": "yes"}),
    ("enum", {"n": 2, "u": 1, "d": 1}),
    ("glue", {"u": 1, "tauX": {"n": 1, "entries": [[["0", "1"]]]},
              "tauY": {"n": 1, "entries": [[["0", "1"]]]},
              "f": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]}),
    ("glue", {"u": 1, "type": [1], "tauX": {"n": 1, "entries": [[["0", "1"]]]},
              "tauY": {"n": 1, "entries": [[["0", "1"]]]},
              "f": [[1, 0], [0, 1.5]], "g": [[1, 0], [0, 1]]}),
    ("humbert", {"a": 1, "b": 3, "c": 0, "d": 0, "e": 0}),
    ("humbert", {"a": 1, "b": 3, "c": 0, "d": 0, "e": 0, "m": "3"}),
    ("act", {"eta": {"n": 1, "coeffs": [{"i": 1, "j": 2, "a": 1}]}, "S": [[1, 0], [0, 1.7]]}),
    ("act", {"eta": {"n": 1, "coeffs": [{"i": 1, "j": 2, "a": 1}]}, "S": [[1, 0], [0]]}),
])
def test_malformed_documents_are_dimension_mismatches(write, command, doc):
    result = cli.run([command, "--in", write("in.json", doc)])
    assert result.exit_code == 2
    assert result.payload["error"]["code"] == "DimensionMismatch"


def test_separate_matrix_document_is_decoded_strictly(write):
    eta = write("eta.json", {"n": 1, "coeffs": [{"i": 1, "j": 2, "a": 1}]})
    for s_doc in ({"T": [[1, 0], [0, 1]]}, {"S": [[1, 0], [0, True]]}, [[1, 0], [0, 1]]):
        result = cli.run(["act", "--in", eta, "--s", write("s.json", s_doc)])
        assert result.payload["error"]["code"] == "DimensionMismatch"


KNOWN_BYTES = [json.dumps(jsonio.two_form_to_json(e)).encode() for e in KNOWN_FORMS]
NON_DIGITS = st.integers(0, 255).filter(lambda b: not 48 <= b <= 57)


@st.composite
def raw_documents(draw):
    """Arbitrary bytes, or a known document cut short or with one byte replaced.

    The replacement is never a digit, so no number in the document grows.
    """
    kind = draw(st.sampled_from(("binary", "cut", "flip")))
    if kind == "binary":
        return draw(st.binary(max_size=48))
    doc = draw(st.sampled_from(KNOWN_BYTES))
    at = draw(st.integers(0, len(doc) - 1))
    return doc[:at] if kind == "cut" else doc[:at] + bytes([draw(NON_DIGITS)]) + doc[at + 1:]


RAW = "raw.json"


def raw_argvs(write):
    """Every file option of every subcommand, with RAW in that slot and valid documents elsewhere."""
    eta = write("eta.json", jsonio.two_form_to_json(theta(2)))
    return ([[command, "--in", RAW] for command in FORM_COMMANDS + ["glue", "enum"]]
            + [["analytic", "--in", eta, "--tau", RAW],
               ["scan", "--tau", RAW, "--u", "1", "--d", "1", "--bound", "1"],
               ["act", "--in", eta, "--s", RAW]])


@FUZZ
@given(data=st.data(), raw=raw_documents())
def test_raw_documents(write, data, raw):
    argv = data.draw(st.sampled_from(raw_argvs(write)))
    path = write(RAW, raw)
    assert_contract([path if arg == RAW else arg for arg in argv])


@pytest.mark.parametrize("contents, code", [
    pytest.param(b'{"n": 1, "coeffs": [{"i": 1', "DimensionMismatch", id="truncated"),
    pytest.param(b"\xff\xfe{}", "DimensionMismatch", id="not-utf8"),
    pytest.param(b"[" * 100000, "DimensionMismatch", id="past-the-recursion-limit"),
    pytest.param(None, "RangeError", id="missing"),
])
@pytest.mark.parametrize("slot", ["--in", "--tau", "--s"])
def test_unreadable_or_unparsable_files(write, tmp_path, contents, code, slot):
    path = tmp_path / "doc.json"
    if contents is not None:
        path.write_bytes(contents)
    eta = write("eta.json", jsonio.two_form_to_json(theta(2)))
    argv = {"--in": ["profile", "--in", str(path)],
            "--tau": ["analytic", "--in", eta, "--tau", str(path)],
            "--s": ["act", "--in", eta, "--s", str(path)]}[slot]
    result = cli.run(argv)
    assert result.exit_code == 2
    assert result.payload["error"]["code"] == code


def test_directory_is_unreadable(tmp_path):
    result = cli.run(["profile", "--in", str(tmp_path)])
    assert result.payload["error"]["code"] == "RangeError"
