import argparse
import gc
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import chromagap
from chromagap import cli, dmr, pipeline, qop, serialize
from chromagap.csp import CspInstance
from chromagap.qop import lift_classical, mermin_peres
from chromagap.relstruct import GRAPH_SIGNATURE, RelStructure, check_homomorphism, clique, digraph, find_homomorphism
from helpers import cyclic_garbage_of, reference_chromatic_lower_bound


def write(tmp_path, name, payload):
    path = os.path.join(tmp_path, name)
    serialize.dump(payload, path)
    return path


@pytest.fixture()
def c5_file(tmp_path):
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    return write(str(tmp_path), "c5.json", serialize.structure_to_dict(C5))


@pytest.fixture()
def k3_file(tmp_path):
    return write(str(tmp_path), "k3.json", serialize.structure_to_dict(clique(3)))


def run(args):
    return cli.main(args)


def test_hom_command(c5_file, k3_file, capsys):
    assert run(["hom", c5_file, k3_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"]


def test_hom_witness_keys_read_back_to_their_vertices(k3_file, tmp_path, capsys):
    """A tuple vertex is keyed by the compact JSON text of its encoding and
    an integer by its decimal text, so `decode_id(json.loads(key))` gives the
    vertex back; a string vertex is its own key.  On the line digraph of K3
    and on a digraph with an integer, a string and a nested tuple vertex."""
    from chromagap.colouring import line_digraph

    nested = (1, ("a", 2))
    for i, X in enumerate([line_digraph(clique(3)), digraph([(0, nested), (nested, "s")])]):
        source = write(str(tmp_path), f"x{i}.json", serialize.structure_to_dict(X))
        assert run(["hom", source, k3_file]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        strings = {v for v in X.domain if isinstance(v, str)}
        keys = {key if key in strings else serialize.decode_id(json.loads(key)): key for key in witness}
        assert set(keys) == set(X.domain) and len(keys) == len(witness)
        f = {v: serialize.decode_id(witness[key]) for v, key in keys.items()}
        assert check_homomorphism(f, X, clique(3))
    assert keys[nested] == '{"t":[1,{"t":["a",2]}]}' and keys[0] == "0"


@pytest.mark.parametrize("bad", [True, 1.5])
def test_hom_prints_no_verdict_on_a_non_identifier_vertex(bad, k3_file, tmp_path, capsys):
    """A boolean or float vertex id stops the command before any search: it
    is not read as a vertex 1, nor kept to fail when the witness is written.
    It is an input error: exit code 2, no verdict on stdout, and one line
    on stderr naming the file and the value."""
    payload = {"signature": [{"name": "E", "arity": 2}], "domain": [1, bad, 2], "relations": {"E": [[1, 2]]}}
    source = write(str(tmp_path), "g.json", payload)
    assert run(["hom", source, k3_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {source}: ValueError: ") and repr(bad) in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_chromatic_command(c5_file, capsys):
    assert run(["chromatic", c5_file, "--cap", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["chromatic"] == 3


def test_indep_command(c5_file, capsys):
    assert run(["indep", c5_file]) == 0
    assert json.loads(capsys.readouterr().out)["independence"] == 2


def test_print_writes_one_json_line_and_leaves_no_cyclic_garbage(capsys):
    """CLI payloads go out through the C encoder: one sorted line, with
    non-JSON values as strings, and nothing left for the collector."""
    payload = {"b": [1, {"c": Fraction(1, 3)}], "a": None}
    _, left = cyclic_garbage_of(lambda: cli._print(payload))
    assert left == 0
    assert capsys.readouterr().out == '{"a": null, "b": [1, {"c": "1/3"}]}\n'


def test_parser_is_built_once_and_repeated_calls_leave_little_garbage(c5_file, capsys):
    """`cli.main` builds its argument parser, a cyclic tree, once per
    process: a repeated `chromatic` call leaves the collector fewer than 100
    objects, and no call changes what a later parse gets by default."""
    parser = cli._parser()
    argvs = [["chromatic", c5_file, "--cap", "4"], ["indep", c5_file], ["pipeline", "thm15"]]
    before = [vars(parser.parse_args(argv)) for argv in argvs]
    assert run(["indep", c5_file, "--cap", "1"]) == 0
    assert run(["chromatic", c5_file, "--cap", "4"]) == 0
    code, left = cyclic_garbage_of(lambda: run(["chromatic", c5_file, "--cap", "4"]))
    assert code == 0 and left < 100
    assert cli._parser() is parser
    assert [vars(parser.parse_args(argv)) for argv in argvs] == before
    capsys.readouterr()
    assert run(["indep", c5_file]) == 0  # no cap left over from the call with --cap 1
    assert json.loads(capsys.readouterr().out)["independence"] == 2


def test_sat_isat_classify_augment(tmp_path, capsys):
    pred = {("a0", "b0"), ("a1", "b0")}
    inst = CspInstance(["x", "y"], ["a0", "a1", "b0"], [(("x", "y"), pred)])
    path = write(str(tmp_path), "inst.json", serialize.instance_to_dict(inst))
    assert run(["sat", path]) == 0
    assert json.loads(capsys.readouterr().out)["sat"] == "1"
    assert run(["isat", path, "--t", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["isat"] == "1"
    assert run(["classify", path]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["bipartite"] and profile["d_to_1"] == 2
    out_path = os.path.join(str(tmp_path), "aug.json")
    assert run(["augment", path, "--k", "1", "--out", out_path]) == 0
    again = serialize.instance_from_dict(serialize.load(out_path))
    assert len(again.constraints) == 2


def test_qverify_command(tmp_path, c5_file, k3_file, capsys):
    C5 = serialize.structure_from_dict(serialize.load(c5_file))
    K3 = serialize.structure_from_dict(serialize.load(k3_file))
    lift = lift_classical(find_homomorphism(C5, K3))
    qpath = write(str(tmp_path), "q.json", serialize.assignment_to_dict(lift))
    assert run(["qverify", c5_file, k3_file, qpath, "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    # a structure with no tuples has no forbidden product to check
    lone = RelStructure(GRAPH_SIGNATURE, ["a"], {})
    xpath = write(str(tmp_path), "lone.json", serialize.structure_to_dict(lone))
    qpath = write(str(tmp_path), "q1.json", serialize.assignment_to_dict(lift_classical({"a": "k0"})))
    assert run(["qverify", xpath, k3_file, qpath]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary == "pass: pvm_ok=True products=0 (viol 0) commutators=0 (viol 0)"


def test_chromatic_lower_bound_rejects_loops():
    """A loop maps to no K2, so a looped graph is never bipartite."""
    for G in (digraph([("a", "b"), ("b", "b")]), digraph([("a", "a")])):
        bipartite, lower = pipeline._chromatic_lower_bound(G)
        assert bipartite is False and lower >= 3


def test_chromatic_lower_bound_matches_reference():
    """Loop-free random graphs.  Every tenth one has 65 to 90 vertices, more
    than the clique probe starts from: a planted clique competes there with
    the higher-degree big side of a planted complete bipartite block."""
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 9) if trial % 10 else rng.randint(65, 90)
        dom = [f"v{i}" for i in range(n)]
        rng.shuffle(dom)
        edges = {
            (a, b) for a in dom for b in dom if a != b and rng.random() < 1 / (2 * n)
        }
        if n > 9:
            small, big, members = dom[:4], dom[4:rng.randint(30, n - 6)], dom[-rng.randint(4, 6):]
            edges |= {(a, b) for a in small for b in big}
            edges |= {(a, b) for a in members for b in members if a != b}
        G = RelStructure(GRAPH_SIGNATURE, sorted(dom, key=lambda v: int(v[1:])), {"E": edges})
        got = pipeline._chromatic_lower_bound(G)
        assert got == reference_chromatic_lower_bound(G)
        seen.add(got)
    assert {(True, 1), (True, 2), (False, 3)} <= seen and any(b > 3 for _, b in seen)


def test_transition_command(capsys):
    assert run(["transition", "--d", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["states"] == 16
    assert float(out["row_sum_residual"]) < 1e-12


def test_linedigraph_command(tmp_path, capsys):
    k4 = write(str(tmp_path), "k4.json", serialize.structure_to_dict(clique(4)))
    assert run(["linedigraph", k4, "--iterate", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 36 and out["edges"] == 108


def test_linedigraph_command_counts_edges_from_the_copies(tmp_path, capsys, monkeypatch):
    """The printed edge count of the last line digraph is read from its
    copies, so its edges are built only for --out; the payload and the
    written structure are those of the public-constructor reference, on
    K4 and on a digraph with a loop, a source and a sink."""
    from chromagap import colouring
    from helpers import reference_line_digraph

    made = []
    real = colouring.line_digraph

    def capturing(X):
        made.append(real(X))
        return made[-1]

    monkeypatch.setattr(colouring, "line_digraph", capturing)
    for i, X in enumerate([clique(4), digraph([("s", "a"), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "t")])]):
        source = write(str(tmp_path), f"x{i}.json", serialize.structure_to_dict(X))
        expected = reference_line_digraph(reference_line_digraph(X))
        for out in (None, os.path.join(str(tmp_path), f"d{i}.json")):
            made.clear()
            assert run(["linedigraph", source, "--iterate", "2"] + (["--out", out] if out else [])) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload == {"vertices": len(expected.domain), "edges": len(expected.relations["E"])}
            assert len(made) == 2 and (getattr(made[-1], "_build", None) is None) == bool(out)
            if out:
                assert serialize.load(out) == serialize.structure_to_dict(expected)


def test_machinery_pipeline_never_builds_the_relabelled_second_line_digraph(monkeypatch):
    """The second line digraph of the thm14 chain, relabelled, is verified
    twice, 2-coloured and counted from its copies: its edges are never
    built, and the report still counts 333,072 of them.  Before the
    relabelling, the transfer checks the counit per copy, so the edges are
    not built there either, not even as a list."""
    from chromagap import colouring

    relabelled, made = {}, []
    real_relabel, real_line_digraph = pipeline.relabel, colouring.line_digraph

    def capturing_relabel(X, prefix="n"):
        out = relabelled[prefix] = real_relabel(X, prefix)
        return out

    def capturing_line_digraph(X):
        made.append(real_line_digraph(X))
        return made[-1]

    monkeypatch.setattr(pipeline, "relabel", capturing_relabel)
    monkeypatch.setattr(colouring, "line_digraph", capturing_line_digraph)
    report = cli.pipeline_machinery(2, 0)
    assert report.verdict == "ledger 10->4->1; verified 3-colouring witness"
    assert report.stages[3].details["edges"] == 333_072
    second, _ = relabelled["d2_"]
    assert getattr(second, "_build", None) is not None and not second._ordered
    [unrenamed] = [D for D in made if len(D.domain) == 18_576]
    assert getattr(unrenamed, "_build", None) is not None and not unrenamed._ordered


def test_rho_and_game_commands(tmp_path, capsys):
    system, _ = mermin_peres()
    spath = os.path.join(str(tmp_path), "magic.xor")
    with open(spath, "w") as fh:
        fh.write(system.format())
    assert run(["rho", spath, "--n", "1", "--ell", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 24 and out["tags"]["2-to-2"] == 144
    assert run(["game", spath, "--n", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["variables"] == 6 and out["constraints"] == 15


def test_rho_transfer_command(tmp_path, capsys):
    system, assignment = mermin_peres()
    spath = os.path.join(str(tmp_path), "magic.xor")
    with open(spath, "w") as fh:
        fh.write(system.format())
    qpath = write(str(tmp_path), "mp.json", serialize.assignment_to_dict(assignment))
    out_path = os.path.join(str(tmp_path), "transferred.json")
    assert (
        run(["rho-transfer", spath, "--n", "1", "--ell", "2", "--strategy", qpath, "--out", out_path]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["perfect"]
    reloaded = serialize.assignment_from_dict(serialize.load(out_path))
    assert reloaded.dim == 4 and len(reloaded.pvms) == 24


@pytest.mark.parametrize("command", ["rho", "rho-transfer"])
def test_rho_without_vertices_exits_2_with_one_error_line(command, cli_inputs, capsys):
    """ell > 2n leaves no low space avoiding H_u, so there is no rho
    instance: exit 2, nothing on stdout and one `error:` line naming the
    empty build, not a traceback; ell = 2n still builds."""
    extra = ["--strategy", cli_inputs["strategy"]] if command == "rho-transfer" else []
    assert run([command, cli_inputs["magic"], "--n", "1", "--ell", "3", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no 1-tuple of equations has a low space of dimension 3 avoiding its H_u\n"
    assert run([command, cli_inputs["magic"], "--n", "1", "--ell", "2", *extra]) == 0


def test_dmr_command(tmp_path, capsys):
    pred = {("a0", "b0"), ("a1", "b0")}
    inst = CspInstance(
        ["p", "q", "y"],
        ["a0", "a1", "b0"],
        [(("p", "y"), pred), (("q", "y"), pred)],
        [Fraction(1, 2), Fraction(1, 2)],
    )
    path = write(str(tmp_path), "seed.json", serialize.instance_to_dict(inst))
    assert run(["dmr", path, "--eps", "12", "--k", "1", "--t", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"]["ell"] == "1"


def test_serialize_round_trips(tmp_path):
    system, assignment = mermin_peres()
    d = serialize.assignment_to_dict(assignment)
    back = serialize.assignment_from_dict(d)
    assert back.dim == assignment.dim
    assert back.pvms == assignment.pvms
    from chromagap.colouring import linedigraph_template

    t = linedigraph_template()
    t2 = serialize.template_from_dict(serialize.template_to_dict(t))
    assert t2.A == t.A and t2.B == t.B and t2.eps == t.eps


def strip_timing(d):
    return {
        **{k: v for k, v in d.items() if k != "stages"},
        "stages": [
            {k: v for k, v in stage.items() if k != "seconds"} for stage in d["stages"]
        ],
    }


def test_magic_square_pipeline_is_exact_and_writes_artifacts(tmp_path, monkeypatch):
    """The thm15 run sweeps every forbidden product of the eta colouring
    exactly; the flags of the removed sampled mode, and the removed budget,
    emit and question-set flags, are rejected.  The
    pipeline call, artifacts included, leaves no cyclic garbage, and nor
    does writing the same two artifacts again."""
    pipeline, garbage = cli.pipeline_magic_square, []

    def counted(*args, **kwargs):
        report, left = cyclic_garbage_of(lambda: pipeline(*args, **kwargs))
        garbage.append(left)
        return report

    monkeypatch.setattr(cli, "pipeline_magic_square", counted)
    out = os.path.join(str(tmp_path), "run")
    assert run(["pipeline", "thm15", "--seed", "0", "--outdir", out]) == 0
    artifacts = [
        serialize.load(os.path.join(out, name)) for name in ("rho_assignment.json", "rho2_instance.json")
    ]
    again = os.path.join(str(tmp_path), "again.json")
    _, writer = cyclic_garbage_of(lambda: [serialize.dump(doc, again) for doc in artifacts])
    assert garbage == [0] and writer == 0
    report = serialize.load(os.path.join(out, "report.json"))
    stages = {stage["name"]: stage for stage in report["stages"]}
    assert stages["magic-square"]["game_form"] == "pass"
    eta = stages["eta-colouring"]
    assert eta["verification"] == (
        "pass: pvm_ok=True products=1254528 (viol 0) commutators=0 (viol 0)"
    )
    assert eta["edges"] == 1_016_064
    assert eta["bipartite"] is True and eta["chromatic_lower_bound"] == 2
    for name in ("rho_assignment.json", "rho2_instance.json"):
        assert os.path.getsize(os.path.join(out, name)) > 0
    with pytest.raises(SystemExit) as info:
        run(["pipeline", "thm15", "--full"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["qverify", "x.json", "y.json", "q.json", "--samples", "4"])
    assert info.value.code == 2
    for argv in (
        ["eta", "inst.json", "--budget", "10"],
        ["dmr", "inst.json", "--eps", "12", "--k", "1", "--t", "1", "--budget", "10"],
        ["pipeline", "thm14", "--budget", "10"],
        ["eta", "inst.json", "--emit-template"],
        ["rho", "magic.xor", "--n", "1", "--ell", "2", "--emit-tags"],
        ["transition", "--d", "2", "--emit-spectrum"],
        ["game", "magic.xor", "--n", "1", "--questions", "all"],
    ):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2


def test_machinery_pipeline_reproducible_and_artifacts_reverify(tmp_path):
    """Same seed, same report (timings aside); the emitted witness re-verifies
    standalone from its files; a run that writes no files leaves no cyclic
    garbage."""
    out = os.path.join(str(tmp_path), "run")
    first = cli.pipeline_machinery(2, seed=1, outdir=out)
    second, garbage = cyclic_garbage_of(lambda: cli.pipeline_machinery(2, seed=1))
    assert garbage == 0
    assert strip_timing(first.to_dict()) == strip_timing(second.to_dict())
    assert first.stages[-1].details["ledger"] == [10, 4, 1]
    assert first.stages[-1].details["final_bipartite"] is False

    from chromagap.qop import verify_assignment

    witness = serialize.assignment_from_dict(
        serialize.load(os.path.join(out, "three_colouring_witness.json"))
    )
    final_digraph = serialize.structure_from_dict(
        serialize.load(os.path.join(out, "final_digraph.json"))
    )
    report = verify_assignment(final_digraph, clique(3), witness, 0)
    assert report.passed


def test_pipelines_pause_the_collector_and_restore_it(monkeypatch):
    """Both pipelines run with the cyclic collector off and leave it as they
    found it, on or off, also when they raise."""
    seen = []

    def record_and_raise(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("stage failed")

    monkeypatch.setattr(dmr, "dmr_pipeline", record_and_raise)
    monkeypatch.setattr(qop, "mermin_peres", record_and_raise)
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for pipeline in (cli.pipeline_machinery, cli.pipeline_magic_square):
                with pytest.raises(RuntimeError, match="stage failed"):
                    pipeline()
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False] * 4
    with pytest.raises(dmr.SizeBudgetExceeded):
        cli.pipeline_machinery(3)
    assert gc.isenabled()


def test_pultr_check_command(tmp_path, capsys):
    from chromagap.colouring import linedigraph_template

    tpath = write(str(tmp_path), "t.json", serialize.template_to_dict(linedigraph_template()))
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    xpath = write(str(tmp_path), "x.json", serialize.structure_to_dict(C5))
    ypath = write(str(tmp_path), "y.json", serialize.structure_to_dict(clique(3)))
    assert run(["pultr", "check", "--template", tpath, "--structure", xpath, "--target", ypath]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agree"]
    gpath = os.path.join(str(tmp_path), "gamma.json")
    assert run(["pultr", "gamma", "--template", tpath, "--structure", xpath, "--out", gpath]) == 0
    gamma = serialize.structure_from_dict(serialize.load(gpath))
    assert len(gamma.domain) == 5  # edges of the 5-cycle


def test_eta_command(tmp_path, capsys):
    full = [(a, b) for a in range(2) for b in range(2)]
    inst = CspInstance(["x", "y"], range(2), [(("x", "y"), full)])
    path = write(str(tmp_path), "dd.json", serialize.instance_to_dict(inst))
    assert run(["eta", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 32 and out["edges"] == 84


# -- every subcommand through `main`, payloads pinned ------------------------


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Tiny input files for every subcommand, by name."""
    d = str(tmp_path_factory.mktemp("cli_inputs"))
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    pred = {("a0", "b0"), ("a1", "b0")}
    full = [(a, b) for a in range(2) for b in range(2)]
    seed = CspInstance(
        ["p", "q", "y"], ["a0", "a1", "b0"], [(("p", "y"), pred), (("q", "y"), pred)],
        [Fraction(1, 2), Fraction(1, 2)],
    )
    system, strategy = mermin_peres()
    from chromagap.colouring import linedigraph_template

    docs = {
        "c5": serialize.structure_to_dict(C5),
        "k2": serialize.structure_to_dict(clique(2)),
        "k3": serialize.structure_to_dict(clique(3)),
        "k4": serialize.structure_to_dict(clique(4)),
        "inst": serialize.instance_to_dict(CspInstance(["x", "y"], ["a0", "a1", "b0"], [(("x", "y"), pred)])),
        "inst_lift": serialize.assignment_to_dict(lift_classical({"x": "a0", "y": "b0"})),
        "c5_k3": serialize.assignment_to_dict(lift_classical(find_homomorphism(C5, clique(3)))),
        "c5_k0": serialize.assignment_to_dict(lift_classical({v: "k0" for v in C5.domain})),
        "template": serialize.template_to_dict(linedigraph_template()),
        "dd": serialize.instance_to_dict(CspInstance(["x", "y"], range(2), [(("x", "y"), full)])),
        "strategy": serialize.assignment_to_dict(strategy),
        "seed": serialize.instance_to_dict(seed),
        "seed_lift": serialize.assignment_to_dict(lift_classical({"p": "a0", "q": "a0", "y": "b0"})),
    }
    paths = {name: write(d, f"{name}.json", doc) for name, doc in docs.items()}
    paths["magic"] = os.path.join(d, "magic.xor")
    with open(paths["magic"], "w") as fh:
        fh.write(system.format())
    return paths


def structure_doc(path):
    return serialize.structure_from_dict(serialize.load(path))


def instance_doc(path):
    return serialize.instance_from_dict(serialize.load(path))


def assignment_doc(path):
    return serialize.assignment_from_dict(serialize.load(path))


PASS = "pass: pvm_ok=True products=0 (viol 0) commutators=0 (viol 0)"
DMR_PARAMETERS = {
    "delta": "4", "ell": "1", "eps": "12", "eps_double_prime": "1", "eps_prime": "2",
    "eps_triple_prime": "2", "h": "2", "m": "1",
}
DMR_CERTIFICATES = [["uniform-marginals", True], ["left-regular", True], ["d-to-d", True]]
DMR_STAGES = ["marginals", "left-regular", "d-to-d"]
DMR_SIZES = ["CspInstance(|X|=5, |A|=3, |E|=4)"] * 2 + ["CspInstance(|X|=4, |A|=2, |E|=12)"]


def dmr_payload(quantum):
    return {
        "certificates": DMR_CERTIFICATES,
        "parameters": DMR_PARAMETERS,
        "quantum": [[stage, q] for stage, q in zip(DMR_STAGES, quantum)],
        "stages": [[stage, size] for stage, size in zip(DMR_STAGES, DMR_SIZES)],
    }


def line_stage(name, vertices, edges, level):
    return {"name": name, "vertices": vertices, "edges": edges, "level": level, "verification": PASS}


# (argv, exit code, payload, {--out file: loader}); `{name}` is an input file,
# `{out}` the case's output directory.  The payloads were recorded from the
# command chain `main` had before its handlers were split out, with the eta,
# transition and rho fields that were then printed on request only and are
# now always printed.  A flag below its least value is a usage error: exit
# code 2, no payload.
USAGE_ERROR = (2, None, {})
CLI_CASES = {
    "indep-negative-cap": (["indep", "{c5}", "--cap", "-1"], *USAGE_ERROR),
    "augment-k-0": (["augment", "{inst}", "--k", "0", "--out", "{out}/aug.json"], *USAGE_ERROR),
    "linedigraph-negative-iterate": (["linedigraph", "{k4}", "--iterate", "-2"], *USAGE_ERROR),
    "transition-d-1": (["transition", "--d", "1"], *USAGE_ERROR),
    "rho-ell-1": (["rho", "{magic}", "--n", "1", "--ell", "1"], *USAGE_ERROR),
    "rho-transfer-ell-1": (
        ["rho-transfer", "{magic}", "--n", "1", "--ell", "1", "--strategy", "{strategy}"], *USAGE_ERROR
    ),
    "rho-n-0": (["rho", "{magic}", "--n", "0", "--ell", "2"], *USAGE_ERROR),
    "game-n-0": (["game", "{magic}", "--n", "0"], *USAGE_ERROR),
    "rho-transfer-n-0": (
        ["rho-transfer", "{magic}", "--n", "0", "--ell", "2", "--strategy", "{strategy}"], *USAGE_ERROR
    ),
    "isat-negative-t": (["isat", "{inst}", "--t", "-1"], *USAGE_ERROR),
    "chromatic-cap-0": (["chromatic", "{c5}", "--cap", "0"], *USAGE_ERROR),
    "chromatic-negative-cap": (["chromatic", "{c5}", "--cap", "-1"], *USAGE_ERROR),
    "qverify-negative-k": (["qverify", "{c5}", "{k3}", "{c5_k3}", "--k", "-1"], *USAGE_ERROR),
    "dmr-t-0": (["dmr", "{seed}", "--eps", "12", "--k", "1", "--t", "0"], *USAGE_ERROR),
    "dmr-negative-k": (["dmr", "{seed}", "--eps", "12", "--k", "-3", "--t", "1"], *USAGE_ERROR),
    "dmr-eps-0": (["dmr", "{seed}", "--eps", "0", "--k", "1", "--t", "1"], *USAGE_ERROR),
    "dmr-negative-eps": (["dmr", "{seed}", "--eps", "-1", "--k", "1", "--t", "1"], *USAGE_ERROR),
    "dmr-eps-zero-denominator": (["dmr", "{seed}", "--eps", "1/0", "--k", "1", "--t", "1"], *USAGE_ERROR),
    "dmr-eps-no-number": (["dmr", "{seed}", "--eps", "twelve", "--k", "1", "--t", "1"], *USAGE_ERROR),
    "hom": (
        ["hom", "{c5}", "{k3}"],
        0,
        {"exists": True, "witness": {"v0": "k0", "v1": "k1", "v2": "k0", "v3": "k1", "v4": "k2"}},
        {},
    ),
    "hom-none": (["hom", "{k3}", "{k2}"], 1, {"exists": False, "witness": None}, {}),
    "chromatic": (["chromatic", "{c5}", "--cap", "5"], 0, {"chromatic": 3}, {}),
    "chromatic-above-cap": (["chromatic", "{c5}", "--cap", "2"], 0, {"chromatic": "above cap"}, {}),
    "indep": (["indep", "{c5}"], 0, {"independence": 2}, {}),
    "indep-cap": (["indep", "{c5}", "--cap", "1"], 0, {"independence": 1}, {}),
    "sat": (["sat", "{inst}"], 0, {"sat": "1"}, {}),
    "isat": (["isat", "{inst}", "--t", "1"], 0, {"isat": "1"}, {}),
    "classify": (
        ["classify", "{inst}"],
        0,
        {"bipartite": True, "d_to_1": 2, "d_to_d": None, "projective": True},
        {},
    ),
    "augment": (
        ["augment", "{inst}", "--k", "1", "--out", "{out}/aug.json"], 0, None, {"aug.json": instance_doc}
    ),
    "qverify": (
        ["qverify", "{c5}", "{k3}", "{c5_k3}", "--k", "1"],
        0,
        {
            "passed": True,
            "perfect": True,
            "summary": PASS,
            "product_violations": [],
            "commutator_violations": [],
        },
        {},
    ),
    "qverify-fails": (
        ["qverify", "{c5}", "{k3}", "{c5_k0}"],
        1,
        {
            "passed": False,
            "perfect": False,
            "summary": "FAIL: pvm_ok=True products=5 (viol 5) commutators=0 (viol 0)",
            "product_violations": [
                f"product('E', ('v{i}', 'v{(i + 1) % 5}'), ('k0', 'k0'))" for i in range(5)
            ],
            "commutator_violations": [],
        },
        {},
    ),
    "qsat": (["qsat", "{inst}", "{inst_lift}"], 0, {"imag": "0", "qsat": "1", "real": True}, {}),
    "pultr-gamma": (
        ["pultr", "gamma", "--template", "{template}", "--structure", "{c5}", "--out", "{out}/g.json"],
        0,
        {"vertices": 5},
        {"g.json": structure_doc},
    ),
    "pultr-lambda": (
        ["pultr", "lambda", "--template", "{template}", "--structure", "{c5}", "--out", "{out}/l.json"],
        0,
        {"vertices": 5},
        {"l.json": structure_doc},
    ),
    "pultr-check": (
        ["pultr", "check", "--template", "{template}", "--structure", "{c5}", "--target", "{k3}"],
        0,
        {"agree": True, "gamma_side": True, "lambda_side": True},
        {},
    ),
    "linedigraph": (
        ["linedigraph", "{k4}", "--iterate", "2", "--out", "{out}/line.json"],
        0,
        {"edges": 108, "vertices": 36},
        {"line.json": structure_doc},
    ),
    "eta": (
        ["eta", "{dd}", "--out", "{out}/eta.json"],
        0,
        {"edges": 84, "template_symbols": 1, "vertices": 32},
        {"eta.json": structure_doc},
    ),
    "transition": (
        ["transition", "--d", "2"],
        0,
        {
            "states": 16,
            "iterations": 47,
            "row_sum_residual": 8.57980353430321e-13,
            "second_modulus": 0.8222666901147099,
            "spectrum": [
                -0.8222666901147099, -0.8222666901147095, -0.8222666901147091, -0.11696311977564583,
                -5.945163273482437e-17, -4.698721272016309e-18, 2.6607389843657197e-18,
                3.714767479555038e-17, 6.694131862399042e-17, 2.0817708326705294e-16,
                0.04741491666948463, 0.04741491666948468, 0.04741491666948468,
                0.7207592200556596, 0.7207592200556601, 0.9999999999999999,
            ],
        },
        {},
    ),
    "rho": (
        ["rho", "{magic}", "--n", "1", "--ell", "2", "--out", "{out}/rho2.json"],
        0,
        {
            "vertices": 24,
            "alphabet": 4,
            "constraints_rho1": 180,
            "constraints_rho2": 144,
            "tags": {"1-to-1": 36, "2-to-2": 144},
        },
        {"rho2.json": instance_doc},
    ),
    "game": (
        ["game", "{magic}", "--n", "1", "--out", "{out}/game.json"],
        0,
        {"alphabet": 24, "constraints": 15, "variables": 6},
        {"game.json": instance_doc},
    ),
    "rho-transfer": (
        ["rho-transfer", "{magic}", "--n", "1", "--ell", "2", "--strategy", "{strategy}",
         "--out", "{out}/transferred.json"],
        0,
        {"perfect": True, "summary": "pass: pvm_ok=True products=1584 (viol 0) commutators=0 (viol 0)"},
        {"transferred.json": assignment_doc},
    ),
    "dmr": (
        ["dmr", "{seed}", "--eps", "12", "--k", "1", "--t", "1"],
        0,
        dmr_payload(["not tracked"] * 3),
        {},
    ),
    "dmr-track-quantum": (
        ["dmr", "{seed}", "--eps", "12", "--k", "1", "--t", "1", "--track-quantum", "{seed_lift}"],
        0,
        dmr_payload([f"level 2: {PASS}", f"level 2: {PASS}", f"level 1: {PASS}"]),
        {},
    ),
    "pipeline-thm14": (
        ["pipeline", "thm14", "--seed", "0", "--outdir", "{out}"],
        0,
        {
            "pipeline": "thm14",
            "seed": 0,
            "stages": [
                {
                    "name": "dmr-chain",
                    "parameters": DMR_PARAMETERS,
                    "certificates": DMR_CERTIFICATES,
                    "quantum": [
                        [stage, f"level {k}: {PASS}"] for stage, k in zip(DMR_STAGES, (20, 20, 10))
                    ],
                    "final": "CspInstance(|X|=4, |A|=2, |E|=12)",
                },
                line_stage("eta", 64, 1008, 10),
                line_stage("line-digraph-1", 1008, 18576, 4),
                line_stage("line-digraph-2", 18576, 333072, 1),
                {
                    "name": "three-colouring",
                    "chi_delta2_k4": 3,
                    "ledger": [10, 4, 1],
                    "verification": PASS,
                    "final_bipartite": False,
                    "bipartite_note": "a bipartite output would already be quantum 2-colourable",
                },
            ],
            "verdict": "ledger 10->4->1; verified 3-colouring witness",
        },
        {
            "report.json": serialize.load,
            "three_colouring_witness.json": assignment_doc,
            "final_digraph.json": structure_doc,
        },
    ),
}


def approx_floats(payload):
    """The payload with its floats, numpy results, compared to within 1e-12."""
    if isinstance(payload, float):
        return pytest.approx(payload, abs=1e-12)
    if isinstance(payload, dict):
        return {k: approx_floats(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [approx_floats(v) for v in payload]
    return payload


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_every_subcommand_exit_code_payload_and_out_files(case, cli_inputs, tmp_path, capsys):
    run_cli_case(case, cli_inputs, str(tmp_path), capsys)


def run_cli_case(case, cli_inputs, out, capsys):
    """Run CLI_CASES[case] with its output directory `out` and check its
    exit code, payload and out files."""
    argv, code, payload, outs = CLI_CASES[case]
    try:
        got_code = run([a.format(out=out, **cli_inputs) for a in argv])
    except SystemExit as exc:  # argparse's usage error
        got_code = exc.code
    printed, err = capsys.readouterr()
    assert got_code == code and ("usage:" in err) == (code == 2)
    if argv[0] == "pipeline":
        assert printed.splitlines()[-1] == f"verdict: {payload['verdict']}"
        got = strip_timing(serialize.load(os.path.join(out, "report.json")))
    else:
        got = json.loads(printed) if printed else None
    assert got == approx_floats(payload)
    for name, loader in outs.items():
        loader(os.path.join(out, name))


class ReadOnlyFamily(dict):
    """A family that refuses every write."""

    def refuse(self, *args, **kwargs):
        raise TypeError("a family of a constructed assignment was written")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = refuse


def test_no_subcommand_writes_into_a_constructed_assignments_families(cli_inputs, tmp_path, capsys, monkeypatch):
    """Variables may share one family object, so a write through one would
    be seen at the others: with the family table of every constructed
    assignment made of families that refuse writes (and `renamed` sharing
    them), every subcommand case and the thm15 pipeline give what they give
    with plain dicts."""
    thm15 = strip_timing(cli.pipeline_magic_square(0).to_dict())
    construct = qop.QuantumAssignment.__init__

    def read_only(self, dim, k, pvms):
        construct(self, dim, k, pvms)
        self.families = [ReadOnlyFamily(fam) for fam in self.families]
        self.pvms = dict(zip(self.pvms, map(self.families.__getitem__, self.family_ids)))

    monkeypatch.setattr(qop.QuantumAssignment, "__init__", read_only)
    given = {"y": qop.PMatrix.identity(1)}
    shared = qop.QuantumAssignment(1, 0, {"x": given, "x'": given}).renamed({"x": 0, "x'": 1})
    with pytest.raises(TypeError):
        shared.pvms[0]["z"] = given["y"]
    assert shared.pvms[0] is shared.pvms[1] and dict(shared.pvms[1]) == given
    for case in sorted(CLI_CASES):
        out = tmp_path / case
        out.mkdir()
        run_cli_case(case, cli_inputs, str(out), capsys)
    assert strip_timing(cli.pipeline_magic_square(0).to_dict()) == thm15


# defaulted parameters of the callables `chromagap` exports plus optional
# flags of the command line, as last counted; lower it when one goes
SETTABLE_VALUES = 38

# lines of src/chromagap/*.py, as last counted; lower it when the count
# drops, and say why wherever it is raised
SRC_LINES = 5285


def test_src_lines_do_not_grow():
    """A ratchet on the package size: the lines of its modules never add
    up to more than SRC_LINES."""
    package = os.path.dirname(chromagap.__file__)
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    assert total <= SRC_LINES, total


def test_settable_values_do_not_grow():
    """A ratchet on what a caller can set: the defaulted parameters of every
    callable the package exports and the optional flags of every
    subcommand never add up to more than SETTABLE_VALUES."""
    defaulted = [
        (name, p.name)
        for name, obj in vars(chromagap).items()
        if callable(obj) and not name.startswith("_")
        for p in inspect.signature(obj).parameters.values()
        if p.default is not p.empty
    ]
    [sub] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [
        (command, a.dest)
        for command, p in sub.choices.items()
        for a in p._actions
        if a.option_strings and not a.required and not isinstance(a, argparse._HelpAction)
    ]
    assert ("verify_assignment", "max_witnesses") in defaulted and ("indep", "cap") in flags
    assert len(defaulted) + len(flags) <= SETTABLE_VALUES, (defaulted, flags)


def test_pultr_check_without_target_is_a_usage_error(cli_inputs, capsys):
    """`pultr check` needs a second structure: without `--target` argparse
    reports a usage error, exit code 2."""
    with pytest.raises(SystemExit) as info:
        run(["pultr", "check", "--template", cli_inputs["template"], "--structure", cli_inputs["c5"]])
    assert info.value.code == 2
    assert "pultr check needs --target" in capsys.readouterr().err


def test_module_entry_point_passes_exit_codes_through(cli_inputs):
    """`python -m chromagap.cli`, the `sys.exit(main())` path the installed
    `chromagap` script takes: `sat` prints exactly one JSON line and exits 0,
    `hom` with no homomorphism exits 1."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cli_process(*argv):
        return subprocess.run(
            [sys.executable, "-m", "chromagap.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    sat = cli_process("sat", cli_inputs["inst"])
    assert sat.returncode == 0, sat.stderr
    lines = sat.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"sat": "1"}
    hom = cli_process("hom", cli_inputs["k3"], cli_inputs["k2"])
    assert hom.returncode == 1, hom.stderr
    assert json.loads(hom.stdout) == {"exists": False, "witness": None}


@pytest.mark.parametrize(
    "argv, bad, content, kind",
    [
        (["hom", "BAD", "k3"], "g.json", '{"signature": [', "JSONDecodeError"),
        (["sat", "BAD"], "inst.json", '{"variables": ["x"]}', "KeyError"),
        (["qverify", "k3", "k3", "BAD"], "a.json", "[1, 2]", "TypeError"),
        (["rho", "BAD", "--n", "1", "--ell", "2"], "s.xor", "x y = 1 = 0\n", "ValueError"),
        (["pultr", "gamma", "--template", "BAD", "--structure", "k3"], "t.json", '{"rho": 3}', "TypeError"),
    ],
)
def test_malformed_input_file_exits_2_with_one_error_line(argv, bad, content, kind, cli_inputs, tmp_path, capsys):
    """A file that does not decode is an input error, not a verdict: `main`
    returns 2, prints nothing on stdout and one line on stderr that names
    the file and the error, for the structure, instance, assignment, system
    and template loaders alike."""
    path = os.path.join(str(tmp_path), bad)
    with open(path, "w") as fh:
        fh.write(content)
    args = [path if a == "BAD" else cli_inputs.get(a, a) for a in argv]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: {kind}: ") and err.count("\n") == 1 and err.endswith("\n")


def test_module_entry_point_reports_a_malformed_input_without_a_traceback(tmp_path):
    """Through `python -m chromagap.cli`, a malformed file exits 2 with the
    one error line and no traceback."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = write(str(tmp_path), "g.json", {"signature": [{"name": "E", "arity": 2}], "domain": [True], "relations": {}})
    proc = subprocess.run(
        [sys.executable, "-m", "chromagap.cli", "hom", source, source],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {source}: ValueError: ") and "Traceback" not in proc.stderr
