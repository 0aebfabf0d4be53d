"""End-to-end tests of the command-line interface."""

import json

import pytest

from qtoric.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from qtoric.documents import serialize_document
from qtoric.fixtures import FIXTURE_NAMES, d47_orientation, get_fixture

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


class TestErrorsAndOutput:
    def test_malformed_json_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"kind": "charmap",')
        code, _, err = run(capsys, "fvector", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert "error:" in err

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

    def test_extra_input_flag(self, capsys, tmp_path):
        cm = tmp_path / "cm.json"
        cm.write_text(serialize_document(get_fixture("square").charmap))
        code, report, _ = run_json(
            capsys, "check-unimodular", "fixtures:square", "--input", str(cm)
        )
        assert code == EXIT_OK
        assert report["verdict"] == "pass"
