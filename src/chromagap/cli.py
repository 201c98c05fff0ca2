"""The `chromagap` command-line tool: argument parsing and dispatch.  Each
subcommand loads its inputs, calls the library and prints one JSON line;
the headline pipelines live in `chromagap.pipeline`, and the names callers
read from here (`PipelineReport`, `machinery_seed_instance`, both
pipelines) are re-exported."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import colouring, csp, dkkms, dmr, pultr, qop, relstruct, serialize
from .pipeline import PipelineReport, machinery_seed_instance, pipeline_machinery, pipeline_magic_square
from .relstruct import ABOVE_CAP

# fixed limits: search nodes of `pultr gamma` and `pultr check`, vertices of
# the `eta` digraph, and left vertices of the left-regular stage of `dmr`
_PULTR_BUDGET = 10_000_000
_ETA_BUDGET = 10_000_000
_DMR_BUDGET = 1_000_000


class InputError(Exception):
    """A malformed input file; `main` prints it on one line and exits 2."""


def _load(path: str, decode):
    """`decode` applied to the text of the file at `path`; an error it raises
    on malformed content becomes one InputError naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return decode(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _load_structure(path: str) -> relstruct.RelStructure:
    return _load(path, lambda text: serialize.structure_from_dict(json.loads(text)))


def _load_instance(path: str) -> csp.CspInstance:
    return _load(path, lambda text: serialize.instance_from_dict(json.loads(text)))


def _load_assignment(path: str) -> qop.QuantumAssignment:
    return _load(path, lambda text: serialize.assignment_from_dict(json.loads(text)))


def _load_system(path: str) -> dkkms.XorSystem:
    return _load(path, dkkms.XorSystem.parse)


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, default=str) + "\n")


def _hom(args) -> int:
    f = relstruct.find_homomorphism(_load_structure(args.source), _load_structure(args.target))
    _print({"exists": f is not None, "witness": None if f is None else {
        k if isinstance(k, str) else json.dumps(serialize.encode_id(k), separators=(",", ":")):
        serialize.encode_id(v) for k, v in f.items()}})
    return 0 if f is not None else 1


def _chromatic(args) -> int:
    result = relstruct.chromatic_number(_load_structure(args.graph), args.cap)
    _print({"chromatic": "above cap" if result is ABOVE_CAP else result})
    return 0


def _indep(args) -> int:
    _print({"independence": relstruct.independence_number(_load_structure(args.graph), args.cap)})
    return 0


def _sat(args) -> int:
    _print({"sat": str(csp.sat_value(_load_instance(args.instance)))})
    return 0


def _isat(args) -> int:
    _print({"isat": str(csp.isat_value(_load_instance(args.instance), args.t))})
    return 0


def _classify(args) -> int:
    profile = csp.classify_label_cover(_load_instance(args.instance))
    _print(
        {
            "bipartite": profile.bipartite is not None,
            "projective": profile.projective is not None,
            "d_to_1": profile.d_to_1,
            "d_to_d": None
            if profile.d_to_d is None
            else {"m": profile.d_to_d.m, "d": profile.d_to_d.d},
        }
    )
    return 0


def _augment(args) -> int:
    out = csp.augment_k(_load_instance(args.instance), args.k)
    serialize.dump(serialize.instance_to_dict(out), args.out)
    return 0


def _qverify(args) -> int:
    report = qop.verify_assignment(
        _load_structure(args.source),
        _load_structure(args.target),
        _load_assignment(args.assignment),
        args.k,
    )
    _print(
        {
            "passed": report.passed,
            "perfect": report.perfect,
            "summary": report.summary(),
            "product_violations": [repr(v) for v in report.product_violations[:10]],
            "commutator_violations": [repr(v) for v in report.commutator_violations[:10]],
        }
    )
    return 0 if report.passed else 1


def _qsat(args) -> int:
    result = qop.qsat(_load_instance(args.instance), _load_assignment(args.assignment))
    _print({"qsat": str(result.value), "imag": str(result.imag), "real": result.real})
    return 0


def _pultr(args) -> int:
    if args.action == "check" and args.target is None:
        _parser().error("pultr check needs --target")
    template = _load(args.template, lambda text: serialize.template_from_dict(json.loads(text)))
    X = _load_structure(args.structure)
    if args.action == "gamma":
        out = pultr.central_apply(template, X, budget=_PULTR_BUDGET)
    elif args.action == "lambda":
        out = pultr.left_apply(template, X)
    else:
        Y = _load_structure(args.target)
        lam, gam = pultr.adjunction_oracle(template, X, Y, budget=_PULTR_BUDGET)
        _print({"lambda_side": lam, "gamma_side": gam, "agree": lam == gam})
        return 0 if lam == gam else 1
    if args.out:
        serialize.dump(serialize.structure_to_dict(out), args.out)
    _print({"vertices": len(out.domain)})
    return 0


def _linedigraph(args) -> int:
    X = _load_structure(args.graph)
    for _ in range(args.iterate):
        X = colouring.line_digraph(X)
    if args.out:
        serialize.dump(serialize.structure_to_dict(X), args.out)
    _print({"vertices": len(X.domain), "edges": X.count(X.graph_symbol())})
    return 0


def _eta(args) -> int:
    ctx = colouring.eta_context(_load_instance(args.instance), budget=_ETA_BUDGET)
    eta = colouring.eta_apply(ctx)
    if args.out:
        serialize.dump(serialize.structure_to_dict(eta), args.out)
    _print({"vertices": len(eta.domain), "edges": len(eta.relations["E"]),
            "template_symbols": len(ctx.symbols)})
    return 0


def _transition(args) -> int:
    tm = colouring.build_transition_matrix(args.d)
    _print({"states": len(tm.states), "iterations": tm.iterations,
            "row_sum_residual": tm.row_sum_residual, "second_modulus": tm.second_modulus,
            "spectrum": tm.spectrum})
    return 0


def _rho(args) -> int:
    rho1 = dkkms.build_rho1(_load_system(args.system), args.n, args.ell)
    rho2 = dkkms.build_rho2(rho1)
    if args.out:
        serialize.dump(serialize.instance_to_dict(rho2.instance), args.out)
    _print({"vertices": len(rho1.instance.variables), "alphabet": len(rho1.instance.alphabet),
            "constraints_rho1": len(rho1.instance.constraints),
            "constraints_rho2": len(rho2.instance.constraints),
            "tags": {t: rho1.tags.count(t) for t in sorted(set(rho1.tags))}})
    return 0


def _game(args) -> int:
    game = dkkms.game_csp(_load_system(args.system), args.n)
    if args.out:
        serialize.dump(serialize.instance_to_dict(game), args.out)
    _print(
        {
            "variables": len(game.variables),
            "alphabet": len(game.alphabet),
            "constraints": len(game.constraints),
        }
    )
    return 0


def _rho_transfer(args) -> int:
    rho, transferred = dkkms.rho_quantum_transfer(
        _load_system(args.system), args.n, args.ell, _load_assignment(args.strategy)
    )
    X, A = csp.to_structures(rho.instance)
    report = qop.verify_assignment(X, A, transferred, 0)
    if args.out:
        serialize.dump(serialize.assignment_to_dict(transferred), args.out)
    _print({"perfect": report.perfect, "summary": report.summary()})
    return 0 if report.perfect else 1


def _dmr(args) -> int:
    tracked = _load_assignment(args.track_quantum) if args.track_quantum else None
    final, rep, _ = dmr.dmr_pipeline(
        _load_instance(args.instance), args.eps, args.k, args.t, tracked,
        budget=_DMR_BUDGET,
    )
    _print(
        {
            "parameters": {k: str(v) for k, v in rep.parameters.items()},
            "stages": rep.stage_sizes,
            "certificates": rep.certificates,
            "quantum": rep.quantum_ledger,
        }
    )
    return 0


def _pipeline(args) -> int:
    if args.which == "thm15":
        report = pipeline_magic_square(args.seed, outdir=args.outdir)
    else:
        report = pipeline_machinery(2, args.seed, outdir=args.outdir)
    print(report.summary())
    report.write("report.json", PipelineReport.to_dict, report)
    return 0 if not report.verdict.startswith("FAIL") else 1


def _int_at_least(low: int):
    """An argparse `type=` for an integer flag: a value below `low` is a
    usage error, like a value that is no integer."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type so when `text` is no integer
    return parse


def _positive_fraction(text: str) -> Fraction:
    """An argparse `type=` for an exact positive rational such as 12 or 1/2;
    anything else is a usage error."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a fraction > 0, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (its tree is cyclic).
    Each subcommand carries its handler as `run`."""
    parser = argparse.ArgumentParser(
        prog="chromagap",
        description="exact CSP reductions and quantum-assignment verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    p = command("hom", _hom, help="find a homomorphism between structures")
    p.add_argument("source")
    p.add_argument("target")

    p = command("chromatic", _chromatic, help="exact chromatic number")
    p.add_argument("graph")
    p.add_argument("--cap", type=_int_at_least(1), required=True)

    p = command("indep", _indep, help="exact independence number")
    p.add_argument("graph")
    p.add_argument("--cap", type=_int_at_least(0), default=None)

    p = command("sat", _sat, help="exact classical value of an instance")
    p.add_argument("instance")

    p = command("isat", _isat, help="induced-subinstance set-assignment value")
    p.add_argument("instance")
    p.add_argument("--t", type=_int_at_least(0), required=True)

    p = command("classify", _classify, help="label-cover certificates")
    p.add_argument("instance")

    p = command("augment", _augment, help="distance-k compatibility augmentation")
    p.add_argument("instance")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)

    p = command("qverify", _qverify, help="verify a quantum assignment")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("assignment")
    p.add_argument("--k", type=_int_at_least(0), default=0)

    p = command("qsat", _qsat, help="exact quantum value of an assignment")
    p.add_argument("instance")
    p.add_argument("assignment")

    p = command("pultr", _pultr, help="Pultr functors and the adjunction oracle")
    p.add_argument("action", choices=["gamma", "lambda", "check"])
    p.add_argument("--template", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--target", default=None, help="second structure for check")
    p.add_argument("--out", default=None)

    p = command("linedigraph", _linedigraph, help="iterate the line-digraph operator")
    p.add_argument("graph")
    p.add_argument("--iterate", type=_int_at_least(0), default=1)
    p.add_argument("--out", default=None)

    p = command("eta", _eta, help="d-to-d to colouring reduction")
    p.add_argument("instance")
    p.add_argument("--out", default=None)

    p = command("transition", _transition, help="build and certify the state matrix")
    p.add_argument("--d", type=_int_at_least(2), required=True)

    p = command("rho", _rho, help="3XOR to 2-to-2 reduction")
    p.add_argument("system", help="text file of `x y z = b` lines")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--out", default=None)

    p = command("game", _game, help="the consistent-repetition game as a CSP")
    p.add_argument("system")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--out", default=None)

    p = command("rho-transfer", _rho_transfer, help="transfer a game strategy through rho")
    p.add_argument("system")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--out", default=None)

    p = command("dmr", _dmr, help="d-to-1 to d-to-d preprocessing chain")
    p.add_argument("instance")
    p.add_argument("--eps", type=_positive_fraction, required=True)
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--track-quantum", default=None, help="assignment file")

    p = command("pipeline", _pipeline, help="headline end-to-end runs")
    p.add_argument("which", choices=["thm15", "thm14"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=None)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand: 0 for success, 1 for a negative verdict, 2 for a
    malformed input file or a vertexless rho; argparse exits 2 on a usage error."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, dkkms.NoVertices) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
