"""Command-line surface: subcommands over the JSON wire formats.

Exit codes: 0 for a positive result, 1 for a well-posed negative answer
(for example a vanishing test that fails), 2 for any usage or input error.
Errors are emitted as one JSON document on stderr; a flag the subcommand
does not declare (``_COMMANDS``) is a ``Usage`` error.  ``--jobs`` reaches
``enumerate_classes`` (``enum``) and ``scan_ppav`` (``scan``), whose float
box walk it splits into worker processes; the output does not depend on it.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import jsonio
from .construct import glue, is_realizable, standard_witness
from .errors import DimensionMismatch, NotPrimitiveModL, NsforgeError, RangeError
from .exterior import check_class, check_class_mod_L, intersection_profile
from .humbert import SingularDatum, eta_from_singular, humbert_relation, singular_from_eta
from .normend import analyze, norm_from_class, polynomial_certificate
from .riemann import DEFAULT_TOL, residual_matrix, scan_ppav, symbolic_relations, wedge_vanishes
from .scan import EnumerationSpec, enumerate_classes
from .symplectic import act, random_symplectic


@dataclass
class CommandResult:
    status: str  # "ok" | "negative" | "error"
    payload: object

    @property
    def exit_code(self):
        return {"ok": 0, "negative": 1, "error": 2}[self.status]


def _read_json(path):
    if path is None:  # stdin only when asked for, so a missing --in never blocks
        raise RangeError("missing --in (use '--in -' to read stdin)")
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, no permission
        raise RangeError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # bad syntax, non-UTF-8 bytes, deep nesting
        raise DimensionMismatch(f"{path} is not a JSON document: {exc}") from None


def _no_data_flags(args):
    """An ``--in`` document carries its own data: refuse the command's data flags beside it."""
    flags = [f for f in _COMMANDS[args.command].data if getattr(args, f[2:]) is not None]
    if flags:
        raise RangeError(f"{args.command} --in takes its data from the document, not {' '.join(flags)}")


def _parse_type(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise RangeError(f"cannot parse type {text!r}")


class _UsageError(NsforgeError):
    code = "Usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's message becomes the JSON diagnostic, not usage text
        raise _UsageError(message)


# every flag's add_argument keywords; each subcommand declares the ones its handler reads
_FLAGS = {
    "--in": {"dest": "infile", "help": "input JSON file, '-' for stdin"},
    "--out": {"dest": "outfile", "help": "output file (default stdout)"},
    "--n": {"type": int},
    "--u": {"type": int},
    "--d": {"type": int},
    "--bound": {"type": int},
    "--type": {},
    "--tau": {"help": "period matrix JSON file"},
    "--tol": {"type": float, "default": DEFAULT_TOL},
    "--backend": {"choices": ["exact", "float"],
                  "help": "force the period-matrix backend (float downgrades exact input)"},
    "--jobs": {"type": int, "default": 1},
    "--s": {"dest": "sfile", "help": "JSON file with {'S': [[...]]}"},
    "--seed": {"type": int, "default": 0},
    "--word-length": {"type": int, "default": 12},
}


def _build_parser():
    parser = _Parser(
        prog="nsforge",
        description="Numerical divisor classes of abelian subvarieties: "
                    "detection, certification, and construction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags + command.data:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _cmd_profile(args):
    eta = jsonio.two_form_from_json(_read_json(args.infile))
    prof = intersection_profile(eta)
    return CommandResult("ok", {"n": prof.n, "values": list(prof.values)})


def _cmd_check(args):
    eta = jsonio.two_form_from_json(_read_json(args.infile))
    got = check_class(eta)
    if got is None:
        return CommandResult("negative", {"class": None})
    u, d = got
    payload = {"u": u, "d": d}
    try:
        mod = check_class_mod_L(eta, u, d)
        payload["mod_L"] = {"congruence_ok": mod.congruence_ok, "qr_ok": mod.qr_ok}
    except NotPrimitiveModL:
        payload["mod_L"] = None
    return CommandResult("ok", payload)


def _cmd_norm(args):
    if (args.u is None) != (args.d is None):
        raise RangeError("norm needs both --u and --d, or neither")
    norm = norm_from_class(jsonio.two_form_from_json(_read_json(args.infile)), args.u, args.d)
    payload = jsonio.norm_to_json(norm)
    payload["certificate"] = polynomial_certificate(norm)
    return CommandResult("ok", payload)


def _cmd_analyze(args):
    eta = jsonio.two_form_from_json(_read_json(args.infile))
    return CommandResult("ok", jsonio.report_to_json(analyze(eta)))


def _load_tau(args):
    tau = jsonio.period_matrix_from_json(_read_json(args.tau))
    if args.backend == "float" and tau.backend == "exact":
        tau = tau.to_float()
    if args.backend == "exact" and tau.backend == "float":
        raise RangeError("cannot promote a float period matrix to the exact backend")
    return tau


def _cmd_analytic(args):
    eta = jsonio.two_form_from_json(_read_json(args.infile))
    if not args.tau:
        raise RangeError("analytic needs --tau")
    tau = _load_tau(args)
    vanishes = wedge_vanishes(eta, tau, tol=args.tol)
    residual = residual_matrix(eta, tau)
    payload = {
        "vanishes": vanishes,
        "residual": jsonio.complex_matrix_to_json(residual, tau.backend),
    }
    return CommandResult("ok" if vanishes else "negative", payload)


def _cmd_relations(args):
    eta = jsonio.two_form_from_json(_read_json(args.infile))
    return CommandResult("ok", jsonio.relation_set_to_json(symbolic_relations(eta)))


def _cmd_glue(args):
    tau, eta = glue(*jsonio.gluing_from_json(_read_json(args.infile)))
    payload = {"tau": jsonio.period_matrix_to_json(tau), "eta": jsonio.two_form_to_json(eta)}
    return CommandResult("ok", payload)


def _cmd_witness(args):
    if args.infile:
        _no_data_flags(args)
        eta = jsonio.two_form_from_json(_read_json(args.infile))
        result = is_realizable(eta)
        payload = {
            "realizable": bool(result),
            "tag": result.tag,
            "tau": jsonio.period_matrix_to_json(result.tau) if result.tau else None,
        }
        return CommandResult("ok" if result else "negative", payload)
    if args.n is None or args.u is None or args.type is None:
        raise RangeError("witness needs --in, or --n --u --type")
    tau, eta = standard_witness(args.n, args.u, _parse_type(args.type))
    payload = {"tau": jsonio.period_matrix_to_json(tau), "eta": jsonio.two_form_to_json(eta)}
    return CommandResult("ok", payload)


def _cmd_scan(args):
    if not args.tau:
        raise RangeError("scan needs --tau")
    if args.u is None or args.d is None or args.bound is None:
        raise RangeError("scan needs --u --d --bound")
    tau = _load_tau(args)
    reports = scan_ppav(tau, args.u, args.d, args.bound, tol=args.tol, jobs=args.jobs)
    return CommandResult("ok", {"classes": [jsonio.report_to_json(r) for r in reports]})


def _cmd_enum(args):
    if args.infile:
        _no_data_flags(args)
        spec = jsonio.enumeration_spec_from_json(_read_json(args.infile))
    else:
        if args.n is None or args.u is None or args.d is None or args.bound is None:
            raise RangeError("enum needs --in, or --n --u --d --bound")
        spec = EnumerationSpec(args.n, args.u, args.d, args.bound,
                               require_type=_parse_type(args.type or "") or None)
    classes = enumerate_classes(spec, args.jobs)
    return CommandResult("ok", {"classes": [jsonio.two_form_to_json(e) for e in classes]})


def _cmd_humbert(args):
    doc = jsonio.humbert_from_json(_read_json(args.infile))
    if isinstance(doc, SingularDatum):
        eta = eta_from_singular(doc)
        payload = {
            "datum": jsonio.singular_to_json(doc),
            "eta": jsonio.two_form_to_json(eta),
            "relation": jsonio.relation_set_to_json(humbert_relation(doc)),
        }
    else:
        eta, payload = doc, {"datum": jsonio.singular_to_json(singular_from_eta(doc))}
    payload["locus"] = jsonio.relation_set_to_json(symbolic_relations(eta))
    return CommandResult("ok", payload)


def _cmd_act(args):
    eta, s_mat = jsonio.act_from_json(_read_json(args.infile))
    if s_mat is None and args.sfile:
        s_mat = jsonio.act_matrix_from_json(_read_json(args.sfile))
    if s_mat is None:
        s_mat = [list(r) for r in
                 random_symplectic(eta.n, args.seed, args.word_length).mat]
    moved = act(s_mat, eta)
    return CommandResult("ok", {"eta": jsonio.two_form_to_json(moved), "S": s_mat})


@dataclass(frozen=True)
class _Command:
    handler: object
    help: str
    flags: tuple  # what the handler reads; argparse refuses every other flag
    data: tuple = ()  # what an --in document carries instead: refused beside --in


_IO = ("--in", "--out")
_COMMANDS = {
    "profile": _Command(_cmd_profile, "intersection numbers against the principal class", _IO),
    "check": _Command(_cmd_check, "profile certification and the mod-L invariants", _IO),
    "norm": _Command(_cmd_norm, "norm matrix with polynomial certificates", _IO + ("--u", "--d")),
    "analyze": _Command(_cmd_analyze, "full subvariety report", _IO),
    "analytic": _Command(_cmd_analytic, "vanishing test against a period matrix",
                         _IO + ("--tau", "--tol", "--backend")),
    "relations": _Command(_cmd_relations, "polynomial relations on the half space", _IO),
    "glue": _Command(_cmd_glue, "glue two polarized factors", _IO),
    "witness": _Command(_cmd_witness, "standard witness or realizability check", _IO,
                        ("--n", "--u", "--type")),
    "scan": _Command(_cmd_scan, "detect bounded classes on a period matrix",
                     ("--out", "--tau", "--u", "--d", "--bound", "--tol", "--backend", "--jobs")),
    "enum": _Command(_cmd_enum, "enumerate bounded candidate classes", _IO + ("--jobs",),
                     ("--n", "--u", "--d", "--bound", "--type")),
    "humbert": _Command(_cmd_humbert, "singular datum / class / relation dictionary", _IO),
    "act": _Command(_cmd_act, "apply an integral symplectic matrix",
                    _IO + ("--s", "--seed", "--word-length")),
}


def _error(exc):
    code = exc.code if isinstance(exc, NsforgeError) else type(exc).__name__
    return CommandResult("error", {"error": {"code": code, "message": str(exc)}})


def _run(argv):
    """Parse and execute: the CommandResult and the --out path (None on an error)."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command].handler(args), args.outfile
    except Exception as exc:  # malformed input must not escape as a traceback
        return _error(exc), None


def run(argv):
    """Parse and execute; returns a CommandResult without touching streams."""
    return _run(argv)[0]


def main(argv=None):
    result, outfile = _run(sys.argv[1:] if argv is None else list(argv))
    if outfile:
        try:
            with open(outfile, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dumps(result.payload))
            return result.exit_code
        except OSError as exc:  # a missing directory, no permission
            result = _error(RangeError(f"cannot write {outfile}: {exc.strerror or exc}"))
    (sys.stderr if result.status == "error" else sys.stdout).write(jsonio.dumps(result.payload))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
