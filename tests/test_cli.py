"""End-to-end tests of the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

import qtoric
import qtoric.charmap
import qtoric.cli as cli
import qtoric.complexes
import qtoric.cyclic
from qtoric.charmap import CharacteristicMap, sign_pattern
from qtoric.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, build_parser, main
from qtoric.complexes import OrientationData, OrientedCells, cell_label, coherent_orientation
from qtoric.cyclic import polar_of_angles
from qtoric.documents import canonical_json, serialize_document
from qtoric.errors import IncoherentOrientationError, QtoricError
from qtoric.fixtures import FIXTURE_NAMES, d47_orientation, d47_polar, get_fixture

import cli_cases
from test_acceptance import ridge_conflicts
from test_complexes import check_coherence

INPUT_COMMANDS = (
    "fvector", "hvector", "orient", "dualize", "cyclic-gen", "polar",
    "orient-tuples", "check-unimodular", "signs", "almost-complex",
    "flip-solve", "fan-check", "search",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def assert_input_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error:")
    return err


class TestFixturesCommand:
    def test_list(self, capsys):
        code, report, _ = run_json(capsys, "fixtures")
        assert code == EXIT_OK
        assert report["fixtures"] == list(FIXTURE_NAMES)

    def test_show_pentagon(self, capsys):
        code, report, _ = run_json(capsys, "fixtures", "pentagon")
        assert code == EXIT_OK
        assert report["charmap"]["vectors"][0] == [0, -1]

    def test_every_fixture_round_trips_through_files(self, capsys, tmp_path):
        # each serialized fixture part parses back and feeds a subcommand
        for name in FIXTURE_NAMES:
            fx = get_fixture(name)
            if fx.complex is None:
                continue
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_document(fx.complex))
            code, report, _ = run_json(capsys, "fvector", str(path))
            assert code == EXIT_OK
            assert report["verdict"][0] == fx.complex.num_vertices

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fvector", "fixtures:nonesuch")
        assert code == EXIT_INPUT_ERROR
        assert "unknown fixture" in err


class TestVectorsAndOrientation:
    def test_fvector_barnette(self, capsys):
        code, report, _ = run_json(capsys, "fvector", "fixtures:barnette")
        assert code == EXIT_OK
        assert report["verdict"] == [8, 27, 38, 19]
        assert report["details"]["euler_characteristic"] == 0

    def test_hvector_barnette(self, capsys):
        code, report, _ = run_json(capsys, "hvector", "fixtures:barnette")
        assert code == EXIT_OK
        assert report["verdict"] == [1, 4, 9, 4, 1]

    def test_orient_barnette(self, capsys):
        code, report, _ = run_json(capsys, "orient", "fixtures:barnette")
        assert code == EXIT_OK
        assert report["verdict"] == "orientable"
        assert len(report["details"]["orientation"]["tuples"]) == 19

    def test_orient_rp2_fails(self, capsys):
        code, report, _ = run_json(capsys, "orient", "fixtures:rp2_6")
        assert code == EXIT_CHECK_FAILED
        assert report["verdict"] == "non-orientable"

    def test_dualize(self, capsys):
        code, report, _ = run_json(capsys, "dualize", "fixtures:simplex4")
        assert code == EXIT_OK
        assert report["kind"] == "simple_polytope"
        assert report["num_facets"] == 5


class TestCyclicCommands:
    def test_gale(self, capsys):
        code, report, _ = run_json(capsys, "gale", "--n", "7")
        assert code == EXIT_OK
        assert report["details"]["count"] == 14
        assert [1, 2, 3, 4] in report["verdict"]

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_gale_dimension_below_one(self, capsys, d):
        assert "d >= 1" in assert_input_error(capsys, "gale", "--n", "7", "--d", d)

    def test_cyclic_gen(self, capsys):
        code, report, _ = run_json(capsys, "cyclic-gen", "fixtures:d47")
        assert code == EXIT_OK
        points = report["details"]["points"]
        assert len(points) == 7
        assert points[0][0] == {"rat": "1/1", "sqrt2": "0/1"}
        assert points[1][0] == {"rat": "0/1", "sqrt2": "1/2"}

    def test_polar(self, capsys):
        code, report, _ = run_json(capsys, "polar", "fixtures:d47")
        assert code == EXIT_OK
        assert report["details"]["polytope"]["num_facets"] == 7
        assert len(report["details"]["vertex_coords"]) == 14

    def test_orient_tuples_reference_comparison(self, capsys):
        code, report, _ = run_json(capsys, "orient-tuples", "fixtures:d47")
        assert code == EXIT_OK
        comparison = report["details"]["reference_comparison"]
        assert comparison["case"] == "mixed"
        assert comparison["minority_parity_vertices"] == ["1245", "1567"]


class TestSignCommands:
    def test_check_unimodular_pentagon(self, capsys):
        code, report, _ = run_json(
            capsys, "check-unimodular", "fixtures:pentagon"
        )
        assert code == EXIT_OK
        assert report["verdict"] == "pass"

    def test_check_unimodular_fail(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "charmap",
            "rank": 2,
            "vectors": [[1, 0], [1, 0], [0, 1], [0, -1]],
        }))
        code, report, _ = run_json(
            capsys, "check-unimodular", "fixtures:square", str(bad)
        )
        assert code == EXIT_CHECK_FAILED
        assert report["verdict"] == "fail"
        assert {"vertex": "12", "det": 0} in report["details"]["offending_vertices"]

    def test_signs_pentagon_all_positive(self, capsys):
        code, report, _ = run_json(capsys, "signs", "fixtures:pentagon")
        assert code == EXIT_OK
        assert report["details"]["all_positive"] is True
        assert all(entry["sign"] == 1 for entry in report["verdict"])

    def test_signs_d47_mixed(self, capsys):
        code, report, _ = run_json(capsys, "signs", "fixtures:d47")
        assert code == EXIT_CHECK_FAILED
        negatives = sorted(
            e["vertex"] for e in report["verdict"] if e["sign"] == -1
        )
        assert negatives == ["1245", "1567", "4567"]

    def test_almost_complex(self, capsys):
        code, report, _ = run_json(capsys, "almost-complex", "fixtures:pentagon")
        assert code == EXIT_OK and report["verdict"] is True
        code, report, _ = run_json(capsys, "almost-complex", "fixtures:d47")
        assert code == EXIT_CHECK_FAILED
        assert report["details"]["offending_vertices"] == ["1245", "1567", "4567"]

    def test_flip_solve_d47_infeasible(self, capsys):
        code, report, _ = run_json(capsys, "flip-solve", "fixtures:d47")
        assert code == EXIT_CHECK_FAILED
        assert report["verdict"] == "infeasible"
        assert report["details"]["contradictory_vertices"] == [
            "1234", "1245", "1347", "1457"
        ]

    def test_flip_solve_barnette_infeasible(self, capsys):
        code, report, _ = run_json(capsys, "flip-solve", "fixtures:barnette")
        assert code == EXIT_CHECK_FAILED
        assert report["verdict"] == "infeasible"

    def test_flip_solve_pentagon_feasible(self, capsys):
        code, report, _ = run_json(capsys, "flip-solve", "fixtures:pentagon")
        assert code == EXIT_OK
        assert report["verdict"] == "feasible"


class TestFanCommands:
    def test_fan_check_pentagon(self, capsys):
        code, report, _ = run_json(capsys, "fan-check", "fixtures:pentagon")
        assert code == EXIT_OK
        assert report["verdict"] == "proper"
        assert report["details"]["num_cones"] == 5

    def test_fan_check_barnette(self, capsys):
        code, report, _ = run_json(capsys, "fan-check", "fixtures:barnette")
        assert code == EXIT_CHECK_FAILED
        assert report["verdict"] == "improper"
        overlaps = [
            o for o in report["details"]["offending_pairs"]
            if o["reason"] == "interior overlap"
        ]
        assert len(overlaps) == 83
        assert all("witness_ray" in o for o in overlaps)

    def test_fan_check_rejects_map_of_wrong_length(self, capsys, tmp_path):
        vectors = [list(v) for v in get_fixture("barnette").charmap.vectors]
        for wrong in (vectors[:5], vectors + [[1, 0, 0, 0]]):
            path = tmp_path / "cm.json"
            path.write_text(json.dumps({"kind": "charmap", "rank": 4, "vectors": wrong}))
            code, out, err = run(capsys, "fan-check", "fixtures:barnette", str(path))
            assert code == EXIT_INPUT_ERROR and out == ""
            assert f"map assigns {len(wrong)} vectors" in err


@pytest.mark.parametrize(
    "command", ["check-unimodular", "signs", "flip-solve", "fan-check"]
)
def test_rank_mismatch_names_both_numbers(capsys, tmp_path, command):
    # a rank-3 map on the 4-dimensional D4(7): one vector per facet, so only
    # the rank is wrong
    vectors = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]]
    path = tmp_path / "cm.json"
    path.write_text(json.dumps({"kind": "charmap", "rank": 3, "vectors": vectors}))
    err = assert_input_error(capsys, command, "fixtures:d47", str(path))
    assert "rank 3 but cell 1234 has 4 carriers" in err


SEARCH_WITH_BUDGET = ("search", "fixtures:barnette", "--base-vertex", "1,2,3,4", "--node-budget", "100")


class TestSearchCommand:
    def test_triangle(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "fixtures:triangle",
            "--bound", "1", "--goal", "all-positive", "--base-vertex", "1,2",
        )
        assert code == EXIT_OK
        assert report["verdict"] == {
            "solutions_found": 1, "nodes_explored": 8, "exhaustive": True
        }
        assert report["details"]["solutions"][0]["vectors"] == [
            [1, 0], [0, 1], [-1, -1]
        ]

    def test_d47_all_positive_empty(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "fixtures:d47",
            "--bound", "1", "--goal", "all-positive", "--base-vertex", "2,1,3,7",
        )
        assert code == EXIT_OK
        assert report["verdict"]["solutions_found"] == 0
        assert report["verdict"]["exhaustive"] is True

    def test_missing_base_vertex(self, capsys):
        code, _, err = run(capsys, "search", "fixtures:triangle")
        assert code == EXIT_INPUT_ERROR
        assert "base-vertex" in err

    def test_bad_base_vertex_value(self, capsys):
        err = assert_input_error(
            capsys, "search", "fixtures:triangle", "--base-vertex", "1,a"
        )
        assert "--base-vertex" in err

    @pytest.mark.parametrize("label", ["\uff12", "2_0", " 2", "+2", "\u0662"], ids=ascii)
    def test_base_vertex_label_is_ascii_digits(self, capsys, label):
        # int() reads a fullwidth or Arabic-Indic 2 as 2 and 2_0 as 20
        err = assert_input_error(
            capsys, "search", "fixtures:d47", "--base-vertex", f"{label},1,3,7"
        )
        assert "--base-vertex" in err

    @pytest.mark.parametrize("argv", [
        # a budget keeps a wrongly accepted --bound 1_0 (bound 10) from running long
        [*SEARCH_WITH_BUDGET, "--bound"],
        [*SEARCH_WITH_BUDGET, "--node-budget"],
        [*SEARCH_WITH_BUDGET, "--max-printed"],
        ["gale", "--d", "4", "--n"],
        ["gale", "--n", "7", "--d"],
    ], ids=lambda argv: argv[-1])
    @pytest.mark.parametrize("value", ["1_0", "\uff11", " 1", "+1", "1.0", "1" * 5000],
                             ids=["underscore", "fullwidth", "space", "plus", "float", "long"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv, value):
        code, out, err, _ = run_any(capsys, argv + [value])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert f"argument {argv[-1]}:" in err

    def test_integer_flags_read_leading_zeros_as_decimal(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "fixtures:barnette", "--bound", "0010", "--goal", "all-positive",
            "--base-vertex", "1,2,3,4", "--node-budget", "0012",
        )
        assert code == EXIT_OK
        assert report["details"]["config"]["bound"] == 10
        assert report["verdict"]["nodes_explored"] == 12

    def test_negative_max_printed(self, capsys):
        err = assert_input_error(
            capsys, "search", "fixtures:triangle",
            "--base-vertex", "1,2", "--max-printed", "-1",
        )
        assert "--max-printed" in err

    def test_negative_node_budget(self, capsys):
        err = assert_input_error(
            capsys, "search", "fixtures:triangle",
            "--base-vertex", "1,2", "--node-budget", "-5",
        )
        assert "node budget" in err

    @pytest.mark.parametrize(
        "limits", [{"solution_cap": 0}, {"solution_cap": -1}, {"node_budget": -5}]
    )
    def test_bad_limits_in_search_config_document(self, capsys, tmp_path, limits):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kind": "search_config", "bound": 1, "base_vertex": [1, 2],
            "goal": "all_positive", **limits,
        }))
        assert_input_error(capsys, "search", "fixtures:triangle", str(path))

    @pytest.mark.parametrize("goal", [[], {}, "all-positive", None])
    def test_bad_goal_in_search_config_document(self, capsys, tmp_path, goal):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kind": "search_config", "bound": 1, "base_vertex": [1, 2], "goal": goal,
        }))
        err = assert_input_error(capsys, "search", "fixtures:triangle", str(path))
        assert err.startswith("error: goal:")

    @pytest.mark.parametrize(
        "flag", [["--bound", "2"], ["--goal", "unimodular"],
                 ["--base-vertex", "1,2"], ["--node-budget", "5"]]
    )
    def test_search_flags_refused_with_a_search_config_document(
        self, capsys, tmp_path, flag
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kind": "search_config", "bound": 1, "base_vertex": [1, 2],
            "goal": "all_positive",
        }))
        err = assert_input_error(capsys, "search", "fixtures:triangle", str(path), *flag)
        assert flag[0] in err and "search_config" in err

    def test_max_printed_applies_to_a_search_config_document(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kind": "search_config", "bound": 1, "base_vertex": [1, 2],
            "goal": "unimodular", "node_budget": 10,
        }))
        code, report, _ = run_json(
            capsys, "search", "fixtures:square", str(path), "--max-printed", "0"
        )
        assert code == EXIT_OK
        assert report["verdict"]["nodes_explored"] == 10
        assert report["details"]["solutions"] == []
        assert report["details"]["config"]["node_budget"] == 10

    @pytest.mark.parametrize("case", ["one-tuple", "swapped-6-7"])
    def test_orientation_must_match_cells(self, capsys, tmp_path, case):
        # search checks the orientation against the cells, as signs does
        tuples = [list(t) for t in d47_orientation().tuples]
        if case == "one-tuple":
            tuples = tuples[:1]
        else:
            tuples[5], tuples[6] = tuples[6], tuples[5]
        path = tmp_path / "orientation.json"
        path.write_text(json.dumps({"kind": "orientation", "tuples": tuples}))
        for argv in (
            ["search", "fixtures:d47", str(path), "--base-vertex", "2,1,3,7"],
            ["signs", "fixtures:d47", str(path)],
        ):
            err = assert_input_error(capsys, *argv)
            assert "orientation" in err

    @pytest.mark.parametrize("command", ["signs", "almost-complex", "flip-solve", "search"])
    def test_orientation_tuple_with_repeated_label(self, capsys, tmp_path, command):
        # (1, 2, 2) covers the set {1, 2} but is no ordering of the cell
        tuples = [list(t) for t in get_fixture("pentagon").orientation.tuples]
        tuples[0] = [1, 2, 2]
        path = tmp_path / "orientation.json"
        path.write_text(json.dumps({"kind": "orientation", "tuples": tuples}))
        argv = [command, "fixtures:pentagon", str(path)]
        if command == "search":
            argv += ["--base-vertex", "1,2"]
        err = assert_input_error(capsys, *argv)
        assert "orientation tuple (1, 2, 2) is not a permutation of cell [1, 2]" in err


# unimodular maps for the orientable fixtures that ship without one
_UNIT = [[int(i == j) for j in range(4)] for i in range(4)]
EXTRA_MAPS = {
    "cross4": cli_cases.DOCUMENTS["cross4"]["vectors"],
    "simplex4": _UNIT + [[-1, -1, -1, -1]],
}
ORIENTED = tuple(name for name in FIXTURE_NAMES if name != "rp2_6")


def oriented_fixture(name, tmp_path):
    """The structure, its fixture orientation, a charmap and the CLI inputs
    that name them."""
    fx = get_fixture(name)
    inputs = [f"fixtures:{name}"]
    cm = fx.charmap
    if name in EXTRA_MAPS:
        cm = CharacteristicMap.of(4, EXTRA_MAPS[name])
        path = tmp_path / "charmap.json"
        path.write_text(serialize_document(cm))
        inputs.append(str(path))
    if name == "d47":
        return d47_polar().polytope, d47_orientation(), cm, inputs
    if fx.orientation is not None:
        return fx.polytope, fx.orientation, cm, inputs
    return fx.complex, coherent_orientation(fx.complex), cm, inputs


class TestOrientationCoherence:
    """Every command that reads an orientation refuses an incoherent one
    with exit 2, naming two cells and the ridge on which they induce the
    same orientation; ridge_conflicts and check_coherence are the oracles."""

    @pytest.mark.parametrize("name", ORIENTED)
    def test_one_swapped_tuple_is_refused(self, capsys, tmp_path, name):
        structure, orientation, cm, inputs = oriented_fixture(name, tmp_path)
        assert OrientedCells.of(structure, orientation).tuples == orientation.tuples
        assert ridge_conflicts(orientation.tuples) == set()
        check_coherence(structure, orientation)
        path = tmp_path / "orientation.json"
        path.write_text(serialize_document(orientation))
        assert run(capsys, "signs", *inputs, str(path))[0] in (EXIT_OK, EXIT_CHECK_FAILED)
        base = ",".join(map(str, orientation.tuples[0]))
        for i, t in enumerate(orientation.tuples):
            tuples = list(orientation.tuples)
            tuples[i] = (t[1], t[0]) + t[2:]
            swapped = OrientationData(tuple(tuples))
            with pytest.raises(AssertionError):
                check_coherence(structure, swapped)
            with pytest.raises(IncoherentOrientationError) as err:
                sign_pattern(structure, cm, swapped)
            exc = err.value
            assert tuples[i] in (exc.cell_a, exc.cell_b)
            pair = tuple(sorted((cell_label(exc.cell_a), cell_label(exc.cell_b))))
            assert pair in ridge_conflicts(swapped.tuples)
            assert exc.ridge == set(exc.cell_a) & set(exc.cell_b)
            path.write_text(serialize_document(swapped))
            for command in ("signs", "almost-complex", "flip-solve", "search"):
                argv = [command, *inputs, str(path)]
                if command == "search":
                    argv += ["--base-vertex", base]
                assert run(capsys, *argv) == (EXIT_INPUT_ERROR, "", f"error: {exc}\n"), argv

    def test_swapped_d47_tuple_message(self, capsys, tmp_path):
        tuples = [list(t) for t in d47_orientation().tuples]
        assert tuples[2] == [1, 2, 4, 5]
        tuples[2] = [2, 1, 4, 5]
        path = tmp_path / "orientation.json"
        path.write_text(json.dumps({"kind": "orientation", "tuples": tuples}))
        for extra in ([], ["--base-vertex", "2,1,3,7"]):
            command = "search" if extra else "signs"
            code, out, err = run(capsys, command, "fixtures:d47", str(path), *extra)
            assert (code, out) == (EXIT_INPUT_ERROR, "")
            assert err == (
                "error: incoherent orientation: cells (1, 2, 3, 4) and (2, 1, 4, 5) "
                "induce the same orientation on ridge [1, 2, 4]\n"
            )

    def test_swapped_d47_tuple_fails_on_every_call(self, capsys, tmp_path):
        # a document is a new orientation on each call, so it is checked on
        # each call, after the fixture's own orientation has its table
        tuples = [list(t) for t in d47_orientation().tuples]
        tuples[2] = [2, 1, 4, 5]
        path = tmp_path / "orientation.json"
        path.write_text(json.dumps({"kind": "orientation", "tuples": tuples}))
        assert run(capsys, "signs", "fixtures:d47")[0] in (EXIT_OK, EXIT_CHECK_FAILED)
        results = [run(capsys, "signs", "fixtures:d47", str(path)) for _ in range(2)]
        assert results[0] == results[1]
        assert results[0][:2] == (EXIT_INPUT_ERROR, "")
        assert results[0][2].startswith("error: incoherent orientation")

    def test_fan_check_ignores_the_orientation(self, capsys, tmp_path):
        tuples = [list(t) for t in d47_orientation().tuples]
        tuples[2] = [2, 1, 4, 5]
        path = tmp_path / "orientation.json"
        path.write_text(json.dumps({"kind": "orientation", "tuples": tuples}))
        code, report, err = run_json(capsys, "fan-check", "fixtures:d47", str(path))
        want_code, want, _ = run_json(capsys, "fan-check", "fixtures:d47")
        assert (code, err) == (want_code, "")
        assert (report["verdict"], report["details"]) == (want["verdict"], want["details"])


class TestCellValidation:
    """Both structure documents go through one validation pass."""

    def test_complex_facet_with_a_repeated_label(self, capsys, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "kind": "simplicial_complex", "num_vertices": 3,
            "facets": [[1, 2, 2], [1, 3], [2, 3]],
        }))
        err = assert_input_error(capsys, "fvector", str(path))
        assert err == "error: facet [1, 2, 2] repeats a label\n"

    def test_polytope_vertex_with_a_repeated_label(self, capsys, tmp_path):
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps({
            "kind": "simple_polytope", "num_facets": 3, "dimension": 2,
            "vertices": [[1, 2, 2], [2, 3], [1, 3]],
        }))
        err = assert_input_error(capsys, "check-unimodular", "fixtures:triangle", str(path))
        assert err == "error: vertex [1, 2, 2] repeats a label\n"

    @pytest.mark.parametrize("command", ["orient", "dualize", "fvector"])
    def test_complex_vertex_in_no_facet(self, capsys, tmp_path, command):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "kind": "simplicial_complex", "num_vertices": 5,
            "facets": [[1, 2], [2, 3], [1, 3]],
        }))
        err = assert_input_error(capsys, command, str(path))
        assert err == "error: vertices [4, 5] appear in no facet\n"

    def test_many_vertices_in_no_facet(self, capsys, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "kind": "simplicial_complex", "num_vertices": 300_000,
            "facets": [[1, 2], [2, 3], [1, 3]],
        }))
        err = assert_input_error(capsys, "fvector", str(path))
        assert err == "error: vertices [4, 5, 6, 7, 8] and 299992 more appear in no facet\n"


class TestErrorsAndOutput:
    def test_malformed_json_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"kind": "charmap",')
        code, _, err = run(capsys, "fvector", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert "error:" in err

    @pytest.mark.parametrize("case", ["nested-100000-deep", "int-of-5000-digits", "not-utf-8"])
    def test_malformed_document_is_an_input_error(self, capsys, tmp_path, case):
        data = {
            "nested-100000-deep": b"[" * 100000 + b"]" * 100000,
            "int-of-5000-digits": b'{"kind": "charmap", "rank": 1, "vectors": [[1%s]]}'
            % (b"0" * 4999),
            "not-utf-8": b'{"kind": "angles", "eighth_turns": [\xff]}',
        }[case]
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        err = assert_input_error(capsys, "check-unimodular", "fixtures:triangle", str(bad))
        if case == "int-of-5000-digits":
            # the message is about the document, not Python's own remedy
            assert "set_int_max_str_digits" not in err
            assert f"longer than {sys.get_int_max_str_digits()} digits" in err

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"kind": "angles", "turns": [0, 1]}))
        code, _, err = run(capsys, "fvector", str(bad))
        assert code == EXIT_INPUT_ERROR

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fvector", "no/such/file.json")
        assert code == EXIT_INPUT_ERROR
        assert "cannot read" in err

    def test_missing_required_input(self, capsys):
        code, _, err = run(capsys, "fvector")
        assert code == EXIT_INPUT_ERROR
        assert "needs" in err

    @pytest.mark.parametrize("command", INPUT_COMMANDS)
    def test_every_input_command_without_inputs(self, capsys, command):
        assert_input_error(capsys, command)

    @pytest.mark.parametrize(
        "argv", [["dualize", "fixtures:simplex4"], ["fixtures", "pentagon"]]
    )
    def test_output_file_of_bare_documents(self, capsys, tmp_path, argv):
        code, expected, _ = run(capsys, *argv)
        assert code == EXIT_OK
        out = tmp_path / "doc.json"
        code, stdout, _ = run(capsys, *argv, "--output", str(out))
        assert (code, stdout) == (EXIT_OK, "")
        assert out.read_text() == expected

    def test_output_file_and_canonical_form(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "fvector", "fixtures:barnette", "--output", str(out)
        )
        assert code == EXIT_OK and stdout == ""
        text = out.read_text()
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text

    def test_unwritable_output(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        err = assert_input_error(
            capsys, "fvector", "fixtures:barnette", "--output", str(out)
        )
        assert "cannot write" in err
        assert not out.exists()

    def test_repeated_key_rejected(self, capsys, tmp_path):
        # read last-wins, the second list would fail with a det-0 vertex
        doc = tmp_path / "repeated.json"
        doc.write_text(
            '{"kind": "charmap", "rank": 2, "vectors": [[1, 0], [0, 1], [-1, -1]], '
            '"vectors": [[1, 0], [1, 0], [0, 1]]}'
        )
        err = assert_input_error(capsys, "check-unimodular", "fixtures:triangle", str(doc))
        assert "vectors: repeated key" in err

    def test_unhashable_kind_is_an_input_error(self, capsys, tmp_path):
        doc = tmp_path / "kind.json"
        for kind in ([], {}):
            doc.write_text(json.dumps({"kind": kind}))
            err = assert_input_error(capsys, "check-unimodular", "fixtures:triangle", str(doc))
            assert err.startswith("error: kind: ")


def run_any(capsys, argv, output=None):
    """Exit code (argparse's on a usage error), stdout, stderr, and the text
    written to `output`, which is then removed."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if output is not None and os.path.exists(output):
        with open(output, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(output)
    return code, captured.out, captured.err, written


class TestSharedParser:
    """main reuses one parser per process; no call may leak into the next."""

    # cases also run with --output, so that a leaked output path shows
    OUTPUT_CASES = ("fixtures pentagon", "hvector fixtures:cross4", "polar fixtures:d47")

    def argvs(self, tmp_path, output):
        """Every case of tests/cli_cases.py, then the --output runs."""
        cli_cases.write_documents(tmp_path)
        return [cli_cases.argv(case, tmp_path) for case, _ in cli_cases.CASES] + [
            cli_cases.argv(case, tmp_path) + ["--output", output] for case in self.OUTPUT_CASES
        ]

    def test_reused_parser_matches_a_cold_one(self, capsys, tmp_path):
        output = str(tmp_path / "out.json")
        argvs = self.argvs(tmp_path, output)
        cold = []
        for argv in argvs:
            build_parser.cache_clear()
            cold.append(run_any(capsys, argv, output))
        assert [c[0] for c in cold].count(EXIT_INPUT_ERROR) == sum(
            code == EXIT_INPUT_ERROR for _, code in cli_cases.CASES)
        assert all(c[3] for c in cold[-len(self.OUTPUT_CASES):])

        build_parser.cache_clear()
        parser = build_parser()
        order = list(range(len(argvs)))
        for i in order + order[::-1]:
            assert run_any(capsys, argvs[i], output) == cold[i], argvs[i]
        assert build_parser() is parser

        assert parser.get_default("inputs") == []
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, subparser in sub.choices.items():
            assert not subparser.get_default("inputs"), command


class TestCases:
    """The console-script cases of tests/cli_cases.py give their exit codes."""

    @pytest.mark.parametrize("case, code", cli_cases.CASES, ids=[c for c, _ in cli_cases.CASES])
    def test_exit_code(self, capsys, tmp_path, case, code):
        cli_cases.write_documents(tmp_path)
        assert run_any(capsys, cli_cases.argv(case, tmp_path))[0] == code

    def test_comparison_names_a_differing_case(self, tmp_path):
        cli_cases.write_documents(tmp_path)
        case = "orient {path}"
        script = (
            f"import sys; sys.path.insert(0, {cli_cases.SRC!r}); "
            "from qtoric.cli import main; code = main(); {}sys.exit(code)"
        )
        same = [sys.executable, "-c", script.format("")]
        assert cli_cases.differences(same, [case], tmp_path) == []
        louder = [sys.executable, "-c", script.format("sys.stderr.write('x'); ")]
        assert cli_cases.differences(louder, [case], tmp_path) == [case]


PARSE_ARGVS = [cli_cases.argv(case, "") for case, _ in cli_cases.CASES] + [
    ["gale", "--n", "x"],
    ["search", "fixtures:triangle", "--goal", "bogus"],
    ["signs"],
    ["-h"],
    ["fixtures", "-h"],
    [],
    ["gale"],
    ["gale", "--d", "3", "--n", "6", "--output", "o.json"],
    ["signs", "--", "fixtures:d47", "--output"],
    ["signs", "fixtures:d47", "--bogus", "x.json"],
    ["fixtures", "d47", "extra"],
    ["--output", "x", "signs"],
]


def parse_outcome(capsys, parse, argv):
    """The Namespace's attributes, or argparse's exit code and output."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("exit", exc.code, captured.out, captured.err)
    assert capsys.readouterr() == ("", "")
    return ("parsed", vars(args))


class TestDispatchedParse:
    """main parses with the subcommand's own parser; it must reach the
    full parser's Namespace, and its exit code and bytes on an error."""

    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=[" ".join(a) or "(none)" for a in PARSE_ARGVS])
    def test_matches_the_full_parser(self, capsys, argv):
        full = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli._parse_args, argv) == full

    def test_cases_cover_both_outcomes(self, capsys):
        outcomes = [parse_outcome(capsys, cli._parse_args, argv) for argv in PARSE_ARGVS]
        assert sum(o[0] == "parsed" for o in outcomes) == 48
        errors = {" ".join(argv): o for argv, o in zip(PARSE_ARGVS, outcomes) if o[0] == "exit"}
        assert errors["gale --n 7 --bogus"][3].startswith("usage: qtoric [-h]")
        assert "qtoric: error: unrecognized arguments: --bogus" in errors["gale --n 7 --bogus"][3]
        assert "qtoric gale: error: argument --n" in errors["gale --n x"][3]
        assert errors["fixtures -h"][1] == 0
        assert errors["fixtures -h"][2].startswith("usage: qtoric fixtures [-h]")


class TestPolarMemo:
    @pytest.mark.parametrize(
        "turns, message",
        [([0, 1, 2, 3, 4], "origin is not interior"), ([0, 1, 8, 3, 4], "0 <= k < 8")],
        ids=["origin-outside", "angle-out-of-range"],
    )
    def test_failed_builds_fail_on_every_repeat(self, capsys, tmp_path, turns, message):
        doc = tmp_path / "angles.json"
        doc.write_text(json.dumps({"kind": "angles", "eighth_turns": turns}))
        size = polar_of_angles.cache_info().currsize
        for _ in range(3):
            assert message in assert_input_error(capsys, "polar", str(doc))
        assert polar_of_angles.cache_info().currsize == size


class TestOrientationTraffic:
    """The polar carries its orientation: a repeat call computes no minor."""

    def test_repeat_calls_make_no_det_z2_calls(self, monkeypatch, capsys):
        calls = []
        det_z2 = qtoric.cyclic.det_z2

        def counted(rows):
            calls.append(len(rows))
            return det_z2(rows)

        monkeypatch.setattr(qtoric.cyclic, "det_z2", counted)
        argvs = [[command, "fixtures:d47"] for command in ("orient-tuples", "signs", "flip-solve")]
        for argv in argvs:
            run(capsys, *argv)
        calls.clear()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code in (EXIT_OK, EXIT_CHECK_FAILED) and out
        assert calls == []


def angle_sets(min_size):
    return [sub for size in range(min_size, 9) for sub in combinations(range(8), size)]


class TestReportFragments:
    """polar, cyclic-gen and orient-tuples encode their details once per
    angle tuple and process; the reports are those of the unencoded details."""

    BUILDERS = {"cyclic-gen": cli._cyclic_gen, "polar": cli._polar_report,
                "orient-tuples": cli._orient_tuples}

    def test_every_angles_report_matches_its_unencoded_details(self, capsys, tmp_path):
        compared = 0
        for turns in angle_sets(0):
            path = tmp_path / "angles.json"
            path.write_text(json.dumps({"kind": "angles", "eighth_turns": list(turns)}))
            for command, build in self.BUILDERS.items():
                code, out, err = run(capsys, command, str(path))
                if len(turns) < 5 and command != "cyclic-gen":
                    assert code == EXIT_INPUT_ERROR
                    continue
                if code == EXIT_INPUT_ERROR:
                    with pytest.raises(QtoricError) as exc:
                        build(turns)
                    assert err == f"error: {exc.value}\n"
                    continue
                verdict, details = build(turns)
                report = {"check": command, "verdict": verdict, "details": details,
                          "provenance": [f"file {path} (angles)"]}
                assert (code, out, err) == (EXIT_OK, canonical_json(report), ""), turns
                compared += 1
        # every subset for cyclic-gen, and the 33 that have a polar twice
        assert compared == 256 + 2 * 33

    @pytest.mark.parametrize("command", sorted(BUILDERS))
    def test_fixture_report_matches_its_unencoded_details(self, capsys, command):
        verdict, details = self.BUILDERS[command](get_fixture("d47").angles.eighth_turns)
        for _ in range(2):
            code, report, _ = run_json(capsys, command, "fixtures:d47")
            assert (code, report["verdict"], report["details"]) == (EXIT_OK, verdict, details)

    def test_d47_and_other_angles_keep_their_own_reports(self, capsys, tmp_path):
        paths = {}
        for name, turns in (("d47", [0, 1, 2, 3, 4, 5, 6]), ("other", [0, 1, 2, 3, 4, 5, 7])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({"kind": "angles", "eighth_turns": turns}))
        reports = {}
        for name in ("other", "d47", "other", "d47"):
            code, report, _ = run_json(capsys, "orient-tuples", str(paths[name]))
            assert code == EXIT_OK
            assert reports.setdefault(name, report) == report
        assert reports["other"]["verdict"] == "ok"
        assert set(reports["other"]["details"]) == {"orientation"}
        assert reports["d47"]["verdict"] == "mixed"
        assert set(reports["d47"]["details"]) == {"orientation", "reference_comparison"}
        # both are C4(7) duals, alike in combinatorics, unlike in coordinates
        coords = [run_json(capsys, "polar", str(paths[name]))[1]["details"]["vertex_coords"]
                  for name in ("d47", "other")]
        assert coords[0] != coords[1]

    def test_repeat_polar_makes_no_sqrt2_to_json_calls(self, monkeypatch, capsys):
        calls = []
        sqrt2_to_json = cli.sqrt2_to_json

        def counted(x):
            calls.append(x)
            return sqrt2_to_json(x)

        monkeypatch.setattr(cli, "sqrt2_to_json", counted)
        cli._angles_report.cache_clear()
        first = run(capsys, "polar", "fixtures:d47")
        # 14 polar vertices of 4 coordinates
        assert first[0] == EXIT_OK and len(calls) == 56
        calls.clear()
        assert run(capsys, "polar", "fixtures:d47") == first
        assert calls == []


class TestComplexInvariantTraffic:
    """A fixture complex computes its ridge map and orientation once per
    process; a failed orientation is computed, and raised, again."""

    @pytest.fixture
    def ridge_maps(self, monkeypatch):
        get_fixture.cache_clear()
        calls = []
        ridge_map = qtoric.complexes._ridge_map

        def counted(facets):
            calls.append(len(facets))
            return ridge_map(facets)

        monkeypatch.setattr(qtoric.complexes, "_ridge_map", counted)
        return calls

    def test_orient_builds_the_ridge_map_once(self, capsys, ridge_maps):
        code, out, _ = run(capsys, "orient", "fixtures:barnette")
        assert code == EXIT_OK and ridge_maps == [19]
        assert run(capsys, "orient", "fixtures:barnette") == (code, out, "")
        assert ridge_maps == [19]

    def test_repeated_signs_build_no_new_orientation(self, monkeypatch, capsys, ridge_maps):
        seen = []
        sign_pattern = qtoric.charmap.sign_pattern

        def spy(structure, cm, orientation):
            seen.append(orientation)
            return sign_pattern(structure, cm, orientation)

        monkeypatch.setattr(qtoric.charmap, "sign_pattern", spy)
        outs = {run(capsys, "signs", "fixtures:barnette") for _ in range(3)}
        # the complex's ridge map only: the coherence check reads it, once,
        # since the checked table is kept on the orientation
        assert len(outs) == 1 and len(seen) == 3 and ridge_maps == [19]
        cached = get_fixture("barnette").complex.coherent_orientation
        assert all(orientation is cached for orientation in seen)

    def test_non_orientable_certificate_on_every_call(self, capsys, ridge_maps):
        reports = [run_json(capsys, "orient", "fixtures:rp2_6") for _ in range(3)]
        code, report, _ = reports[0]
        assert code == EXIT_CHECK_FAILED and report["verdict"] == "non-orientable"
        assert set(report["details"]) == {"conflict_facets", "conflict_ridge"}
        assert reports == [reports[0]] * 3
        assert ridge_maps == [10]


class TestOneShot:
    def test_subprocess_matches_warm_in_process_main(self, capsys, tmp_path):
        cli_cases.write_documents(tmp_path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(qtoric.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv in (
            ["fvector", "fixtures:barnette"],
            ["polar", "fixtures:d47"],
            cli_cases.argv("fan-check fixtures:cross4 {cross4}", tmp_path),
        ):
            run(capsys, *argv)
            code, out, err = run(capsys, *argv)
            assert code in (EXIT_OK, EXIT_CHECK_FAILED) and out
            proc = subprocess.run(
                [sys.executable, "-m", "qtoric.cli", *argv],
                capture_output=True, env={**os.environ, "PYTHONPATH": path}, check=False,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, out.encode("utf-8"), err.encode("utf-8")
            ), argv
