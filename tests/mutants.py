"""Standing mutants: small breaks of the program that the tests must catch.

Each mutant names a file, an exact text in it, the text that replaces it,
and the tests that must fail once it is replaced.  Run

    python tests/mutants.py [name ...]

from the repository root.  Each mutant (all of them, or those named) is
applied to a fresh copy of `src/` and `tests/` in a temporary directory,
and its tests run there with pytest.  A mutant survives when one of its
tests still passes; the script prints one line per mutant and exits 1 if
any survives.  The run takes minutes, so the test suite only checks that
each old text occurs exactly once (`tests/test_mutants.py`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        "glued-check-always-true",
        "src/chromagap/pultr.py",
        "hom_cache[key] = glued in copies[name] or check_homomorphism(dict(zip(bt.domain, glued)), bt, Y)",
        "hom_cache[key] = True",
        ("tests/test_pultr.py::test_transfer_lambda_matches_reference",),
    ),
    Mutant(
        "witness-fast-path-without-relation-check",
        "src/chromagap/pultr.py",
        "X.relations[r].issuperset(zip(*map(image.__getitem__, ps)))",
        "True",
        (
            "tests/test_pultr.py::test_gadget_witness_matches_check_homomorphism_reference",
            "tests/test_pultr.py::test_gadget_witnesses_match_the_reference_tuple_by_tuple",
            "tests/test_pultr.py::test_gadget_witness_rejects_tuples_that_disagree_on_a_glued_vertex",
        ),
    ),
    Mutant(
        "witness-loop-without-agreement-test",
        "src/chromagap/pultr.py",
        "if any(ht[i][ai] != ht[j][aj] for (i, ai), (j, aj) in agree):",
        "if False:",
        (
            "tests/test_pultr.py::test_gadget_witness_matches_check_homomorphism_reference",
            "tests/test_pultr.py::test_gadget_witnesses_match_the_reference_tuple_by_tuple",
            "tests/test_pultr.py::test_gadget_witness_rejects_tuples_that_disagree_on_a_glued_vertex",
        ),
    ),
    Mutant(
        "counit-check-skipped",
        "src/chromagap/pultr.py",
        "if not all(ell[b] == at[j, ai] for j, ai, b in pairs):",
        "if False:",
        (
            "tests/test_pultr.py::test_gamma_functor_matches_reference",
            "tests/test_pultr.py::test_gamma_functor_names_the_first_tuple_in_canonical_order",
        ),
    ),
    Mutant(
        "per-copy-check-drops-the-cross-side-test",
        "src/chromagap/pultr.py",
        "if at[p] != one * len(sides[p[0]]) or at[q] != one * len(sides[q[0]]):",
        "if False:",
        (
            "tests/test_pultr.py::test_gamma_functor_matches_reference",
            "tests/test_pultr.py::test_copies_glue_decides_like_the_column_pass",
        ),
    ),
    Mutant(
        "gamma-products-memo-keyed-on-the-first-family",
        "src/chromagap/pultr.py",
        "key = tuple(map(fid.__getitem__, copies(x)))",
        "key = (fid[copies(x)[0]],)",
        (
            "tests/test_pultr.py::test_gamma_products_matches_reference",
            "tests/test_pultr.py::test_gamma_products_share_one_family_per_distinct_source_tuple",
        ),
    ),
    Mutant(
        "verify-writes-into-a-shared-family",
        "src/chromagap/qop.py",
        "gid_of = [given.setdefault(tuple(fam.items()), len(given)) for fam in assignment.families]",
        "gid_of = [given.setdefault(tuple(fam.items()), len(given)) for fam in assignment.families if not fam.update()]",
        ("tests/test_cli.py::test_no_subcommand_writes_into_a_constructed_assignments_families",),
    ),
    Mutant(
        "transfer-compares-only-a-tag-members",
        "src/chromagap/pultr.py",
        "if fam_of_tag != list(map(fam_of_tag.__getitem__, heads)):",
        "if fam_of_tag[: n_a * len(X.domain)] != list(map(fam_of_tag.__getitem__, heads[: n_a * len(X.domain)])):",
        (
            "tests/test_pultr.py::test_transfer_lambda_matches_reference",
            "tests/test_pultr.py::test_transfer_lambda_names_the_first_class_not_the_first_bad_tag",
            "tests/test_pultr.py::test_transfer_lambda_reads_an_empty_part_source_as_empty_families",
        ),
    ),
    Mutant(
        "xi-colouring-skips-gadget-tags",
        "src/chromagap/colouring.py",
        "if colours != list(map(colours.__getitem__, heads)):",
        "if colours[: len(target.domain) * len(z_all)] != list(map(colours.__getitem__, heads[: len(target.domain) * len(z_all)])):",
        ("tests/test_colouring.py::test_xi_colouring_matches_the_tag_by_tag_reference",),
    ),
    Mutant(
        "rho-signature-reads-only-the-first-overlap-vector",
        "src/chromagap/dkkms.py",
        "for o in overlap.basis]",
        "for o in overlap.basis[:1]]",
        (
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_magic_square",
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_random_regular_systems",
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_pairs_of_equations",
        ),
    ),
    Mutant(
        "elimination-keeps-the-new-pivot-in-earlier-rows",
        "src/chromagap/f2linalg.py",
        "echelon[q] = e ^ row",
        "pass",
        (
            "tests/test_f2linalg.py::test_elimination_matches_the_reference_on_random_inputs",
            "tests/test_f2linalg.py::test_canonical_rref_under_random_generators",
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_magic_square",
        ),
    ),
    Mutant(
        "rho-domain-check-dropped",
        "src/chromagap/dkkms.py",
        "if ext_domain != joint or any(map(joint.reduce, overlap.basis)):",
        "if False:",
        ("tests/test_dkkms.py::test_build_rho1_rejects_extensions_off_the_joint_space",),
    ),
    Mutant(
        "rho-signature-cache-keyed-without-the-overlap",
        "src/chromagap/dkkms.py",
        "ck = (i, other_tuple, overlap.basis)",
        "ck = (i, other_tuple)",
        ("tests/test_dkkms.py::test_build_rho1_matches_reference_on_pairs_of_equations",),
    ),
    Mutant(
        "rho-equation-rows-drop-the-constant",
        "src/chromagap/dkkms.py",
        "system.equation_vector(i).bits | system.equations[i][1] << (word_at + ell)",
        "system.equation_vector(i).bits",
        (
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_magic_square",
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_random_regular_systems",
            "tests/test_dkkms.py::test_build_rho1_matches_reference_on_pairs_of_equations",
        ),
    ),
    Mutant(
        "product-count-drops-a-side-multiplicity",
        "src/chromagap/qop.py",
        "counts.update({(a, b): copies * ca * cb for a, ca in left.items() for b, cb in right.items()})",
        "counts.update({(a, b): copies * ca for a, ca in left.items() for b, cb in right.items()})",
        ("tests/test_colouring.py::test_verify_assignment_on_line_digraphs_matches_the_references",),
    ),
    Mutant(
        "side-graph-drops-the-link-between-p-and-q",
        "src/chromagap/relstruct.py",
        "heads += p_nodes\n            tails += q_nodes",
        "pass",
        (
            "tests/test_colouring.py::test_line_digraph_copies_and_their_readers_match_the_references",
            "tests/test_relstruct.py::test_is_bipartite_matches_k2_search",
        ),
    ),
    Mutant(
        "relabel-keeps-the-old-maps",
        "src/chromagap/relstruct.py",
        "[(g, [tuple(map(image, m)) for m in maps]) for g, maps in X._blocks]",
        "X._blocks",
        (
            "tests/test_colouring.py::test_line_digraph_copies_and_their_readers_match_the_references",
            "tests/test_cli.py::test_machinery_pipeline_never_builds_the_relabelled_second_line_digraph",
        ),
    ),
    Mutant(
        "thm15-runs-on-after-a-failed-game-check",
        "src/chromagap/pipeline.py",
        'report.verdict = "FAIL at the magic-square stage"\n        return report',
        "pass",
        ("tests/test_pipeline.py::test_thm15_runner_stops_at_a_failed_game_check",),
    ),
    Mutant(
        "soundness-note-always-bipartite",
        "src/chromagap/pipeline.py",
        "soundness_note=_soundness_note(bipartite, lower_bound, profile.bipartite is not None),",
        "soundness_note=_soundness_note(True, 2, True),",
        ("tests/test_pipeline.py::test_thm15_runner_matches_its_reference_mode_run",),
    ),
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def failed_tests(mutant: Mutant) -> set:
    """The node ids among the mutant's tests that fail on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as copy:
        for part in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, part),
                os.path.join(copy, part),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        path = os.path.join(copy, mutant.path)
        with open(path) as f:
            text = f.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once in {mutant.path}")
        with open(path, "w") as f:
            f.write(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH=os.path.join(copy, "src")),
            capture_output=True,
            text=True,
        )
    # `-rf` lists each failure as "FAILED <node id> - <message>"
    return {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = 0
    for mutant in chosen:
        passing = [t for t in mutant.tests if t not in failed_tests(mutant)]
        survivors += bool(passing)
        print(f"{mutant.name}: " + (f"SURVIVED, still passing: {', '.join(passing)}" if passing else "killed"))
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
