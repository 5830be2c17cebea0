import ast
import copy
import dataclasses
import hashlib
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import dumps_canonical_loop
from stabcert.cli import (
    dumps_canonical,
    load_problem_dict,
    parse_problem,
    run,
)
from stabcert.errors import ProblemFormatError
from stabcert.groupnorm import GroupPartition
from stabcert.nuclear import NuclearShape
from stabcert.solver import ProblemSpec, SolveResult
from stabcert.stability import PerturbationReport, QGAuditReport, StabilityCertificate

BASE_DOC = {
    "schema_version": "1",
    "phi": [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]],
    "b": [2.0, -1.0],
    "mu": 1.0,
    "reg": {"kind": "group", "groups": [[1, 2], [3]]},
}
NUCLEAR_DOC = {
    "schema_version": "1",
    "phi": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    "b": [2.0, 0.5, -0.3, 1.0],
    "mu": 0.5,
    "reg": {"kind": "nuclear", "shape": [2, 2]},
}
GROUP_CLASSIFICATION_KEYS = [
    "kind",
    "boundary_blocks",
    "interior_blocks",
    "support_blocks",
    "block_norms",
    "classification_margin",
]
BASE_PHI = np.array(BASE_DOC["phi"])
BASE_PAIRS = GroupPartition(3, ((0, 1), (2,)))


def doc(**overrides):
    d = copy.deepcopy(BASE_DOC)
    d.update(overrides)
    return d


def write_doc(tmp_path, d, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


class TestCanonicalJson:
    def test_full_precision_floats(self):
        text = dumps_canonical({"a": 1.0 / 3.0, "b": 0.1})
        assert text == '{"a":0.33333333333333331,"b":0.10000000000000001}'
        back = json.loads(text)
        assert back["a"] == 1.0 / 3.0 and back["b"] == 0.1

    def test_nonfinite_becomes_null(self):
        assert dumps_canonical([math.inf, -math.inf, math.nan]) == "[null,null,null]"

    def test_scalars_and_arrays(self):
        text = dumps_canonical({"ok": True, "n": 3, "v": np.array([1.0, 2.5]), "none": None})
        assert text == '{"ok":true,"n":3,"v":[1,2.5],"none":null}'

    def test_deterministic(self):
        payload = {"x": [0.1, 0.2, 0.30000000000000004], "nested": {"k": -0.0}}
        assert dumps_canonical(payload) == dumps_canonical(copy.deepcopy(payload))


class TestProblemValidation:
    def test_accepts_reference_document(self):
        spec, options = load_problem_dict(doc())
        assert spec.mu == 1.0
        assert isinstance(spec.reg, GroupPartition)
        assert spec.reg.groups == ((0, 1), (2,))
        assert options == {}

    def test_accepts_nuclear_document(self):
        d = doc(
            phi=[[1.0, 0.0, 0.0, 0.0]],
            b=[1.0],
            reg={"kind": "nuclear", "shape": [2, 2]},
        )
        spec, _ = load_problem_dict(d)
        assert spec.reg.n1 == 2 and spec.reg.n2 == 2

    @pytest.mark.parametrize(
        "mutate,code",
        [
            (lambda d: d.update(extra=1), "UNKNOWN_FIELD"),
            (lambda d: d.pop("mu"), "MISSING_FIELD"),
            (lambda d: d.update(schema_version="2"), "SCHEMA_UNSUPPORTED"),
            (lambda d: d.update(phi="nope"), "BAD_TYPE"),
            (lambda d: d.update(phi=[[1.0, 2.0], [3.0]]), "DIMENSION_MISMATCH"),
            (lambda d: d.update(b=[2.0]), "DIMENSION_MISMATCH"),
            (lambda d: d.update(b=[2.0, math.inf]), "NOT_FINITE"),
            (lambda d: d.update(mu=0.0), "MU_NONPOSITIVE"),
            (lambda d: d.update(mu=-2.0), "MU_NONPOSITIVE"),
            (lambda d: d.update(mu="one"), "BAD_TYPE"),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[0, 1], [2]]}),
                "GROUP_INDEX_RANGE",
            ),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[1, 2], [2, 3]]}),
                "GROUPS_OVERLAP",
            ),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[1, 2]]}),
                "GROUPS_COVERAGE",
            ),
            (lambda d: d.update(reg={"kind": "ball"}), "BAD_TYPE"),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[1, 2], [3]], "w": 1}),
                "UNKNOWN_FIELD",
            ),
            (
                lambda d: d.update(
                    phi=[[1.0, 0.0, 0.0]], b=[1.0], reg={"kind": "nuclear", "shape": [2, 2]}
                ),
                "DIMENSION_MISMATCH",
            ),
            (lambda d: d.update(options={"fast": True}), "UNKNOWN_FIELD"),
            (lambda d: d.update(options={"max_iter": 2.5}), "BAD_TYPE"),
            (lambda d: d.update(options={"tol": -1e-8}), "BAD_TYPE"),
        ],
    )
    def test_rejects_with_specific_code(self, mutate, code):
        d = doc()
        mutate(d)
        with pytest.raises(ProblemFormatError) as exc:
            load_problem_dict(d)
        assert exc.value.code == code

    # The cases whose rule a constructor owns: the mutation, the same
    # instance built directly, the code, and the message the CLI prints.

    @pytest.mark.parametrize(
        "mutate,build,code,message",
        [
            (
                lambda d: d.update(b=[2.0]),
                lambda: ProblemSpec(BASE_PHI, [2.0], 1.0, BASE_PAIRS),
                "DIMENSION_MISMATCH",
                "b has 1 entries, phi has 2 rows",
            ),
            (
                lambda d: d.update(b=[2.0, math.inf]),
                lambda: ProblemSpec(BASE_PHI, [2.0, math.inf], 1.0, BASE_PAIRS),
                "NOT_FINITE",
                "b entry must be finite",
            ),
            (
                lambda d: d.update(b=["2", "-1"]),
                lambda: ProblemSpec(BASE_PHI, ["2", "-1"], 1.0, BASE_PAIRS),
                "BAD_TYPE",
                "b entry must be a number",
            ),
            (
                lambda d: d.update(b=[True, False]),
                lambda: ProblemSpec(BASE_PHI, [True, False], 1.0, BASE_PAIRS),
                "BAD_TYPE",
                "b entry must be a number",
            ),
            (
                lambda d: d.update(b=[1, True]),
                lambda: ProblemSpec(BASE_PHI, [1, True], 1.0, BASE_PAIRS),
                "BAD_TYPE",
                "b entry must be a number",
            ),
            (
                lambda d: d.update(b=[2.0, 10**400]),
                lambda: ProblemSpec(BASE_PHI, [2.0, 10**400], 1.0, BASE_PAIRS),
                "NOT_FINITE",
                "b entry must be finite",
            ),
            (
                lambda d: d.update(mu="1"),
                lambda: ProblemSpec(BASE_PHI, [2.0, -1.0], "1", BASE_PAIRS),
                "BAD_TYPE",
                "mu must be a number",
            ),
            (
                lambda d: d.update(mu=True),
                lambda: ProblemSpec(BASE_PHI, [2.0, -1.0], True, BASE_PAIRS),
                "BAD_TYPE",
                "mu must be a number",
            ),
            (
                lambda d: d["phi"][1].__setitem__(0, None),
                lambda: ProblemSpec([[1.0, 1.0, 0.0], [None, 0.0, -1.0]], [2.0, -1.0], 1.0, BASE_PAIRS),
                "BAD_TYPE",
                "phi entry must be a number",
            ),
            (
                lambda d: d["phi"][1].pop(),
                lambda: ProblemSpec([[1.0, 1.0, 0.0], [1.0, 0.0]], [2.0, -1.0], 1.0, BASE_PAIRS),
                "DIMENSION_MISMATCH",
                "phi rows must be non-empty and equally long",
            ),
            (
                lambda d: d.update(mu=0.0),
                lambda: ProblemSpec(BASE_PHI, [2.0, -1.0], 0.0, BASE_PAIRS),
                "MU_NONPOSITIVE",
                "mu must be positive, got 0.0",
            ),
            (
                lambda d: d.update(mu=-2.0),
                lambda: ProblemSpec(BASE_PHI, [2.0, -1.0], -2.0, BASE_PAIRS),
                "MU_NONPOSITIVE",
                "mu must be positive, got -2.0",
            ),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[0, 1], [2]]}),
                lambda: GroupPartition(3, [[-1, 0], [1]]),
                "GROUP_INDEX_RANGE",
                "group index 0 outside 1..3",
            ),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[1, 2], [2, 3]]}),
                lambda: GroupPartition(3, [[0, 1], [1, 2]]),
                "GROUPS_OVERLAP",
                "variable 2 appears in two groups",
            ),
            (
                lambda d: d.update(reg={"kind": "group", "groups": [[1, 2]]}),
                lambda: GroupPartition(3, [[0, 1]]),
                "GROUPS_COVERAGE",
                "variables not covered by any group: [3]",
            ),
            (
                lambda d: d.update(
                    phi=[[1.0, 0.0, 0.0]], b=[1.0], reg={"kind": "nuclear", "shape": [2, 2]}
                ),
                lambda: ProblemSpec(np.zeros((1, 3)), [1.0], 1.0, NuclearShape(2, 2)),
                "DIMENSION_MISMATCH",
                "regularizer dimension 4 does not match phi columns 3",
            ),
            *(
                (
                    lambda d, g=groups: d.update(reg={"kind": "group", "groups": g}),
                    lambda g=groups: GroupPartition(3, g),
                    "BAD_TYPE",
                    "groups must be a list of lists",
                )
                for groups in (5, [1, 2], [[1], 2], None)
            ),
        ],
        ids=[
            "b-length", "b-inf", "b-strings", "b-bools", "b-int-and-bool", "b-huge-int",
            "mu-string", "mu-bool", "phi-null", "phi-ragged", "mu-zero", "mu-negative", "range",
            "overlap", "coverage", "shape", "groups-number", "groups-flat", "groups-mixed",
            "groups-null",
        ],
    )
    def test_constructor_and_file_share_the_code(
        self, mutate, build, code, message, tmp_path, capsys
    ):
        d = doc()
        mutate(d)
        with pytest.raises(ProblemFormatError) as direct:
            build()
        with pytest.raises(ProblemFormatError) as loaded:
            load_problem_dict(d)
        assert direct.value.code == loaded.value.code == code
        assert isinstance(direct.value, ValueError)
        exit_code, report = run_capture(capsys, ["certify", write_doc(tmp_path, d)])
        assert exit_code == 1
        assert str(direct.value) == str(loaded.value) == message
        assert report["error"] == {"code": code, "message": message}

    @pytest.mark.parametrize(
        "groups",
        [[[1.5, 2], [3]], [[1, 2.0], [3]], [[True, 2], [3]], [[1, 2], ["3"]], [[1, 2], []]],
    )
    def test_group_index_types_are_the_partitions_rule(self, groups):
        with pytest.raises(ProblemFormatError) as exc:
            load_problem_dict(doc(reg={"kind": "group", "groups": groups}))
        assert exc.value.code == "BAD_TYPE"

    @pytest.mark.parametrize("shape", [[2.5, 2], [True, 3], [0, 3], [2, -2], ["2", 2]])
    def test_shape_types_are_the_shapes_rule(self, shape):
        d = doc(phi=[[1.0, 0.0, 0.0, 0.0]], b=[1.0], reg={"kind": "nuclear", "shape": shape})
        with pytest.raises(ProblemFormatError) as exc:
            load_problem_dict(d)
        assert exc.value.code == "BAD_TYPE"
        assert str(exc.value) == "shape must be two positive integers"

    @pytest.mark.parametrize(
        "reg,code,message",
        [
            # An unhashable kind is compared, not looked up.
            (
                {"kind": ["group"], "groups": [[1, 2], [3]]},
                "BAD_TYPE",
                "unknown regularizer kind ['group']",
            ),
            (
                {"kind": "group", "groups": [[1, 2], [3]], "shape": [1, 3]},
                "UNKNOWN_FIELD",
                "unknown reg fields: ['shape']",
            ),
            (
                {"kind": "nuclear", "shape": [1, 3], "groups": [[1, 2], [3]], "w": 1},
                "UNKNOWN_FIELD",
                "unknown reg fields: ['groups', 'w']",
            ),
        ],
        ids=["kind-list", "group-extra", "nuclear-extra"],
    )
    def test_reg_object_errors(self, reg, code, message, tmp_path, capsys):
        with pytest.raises(ProblemFormatError) as exc:
            load_problem_dict(doc(reg=reg))
        assert (exc.value.code, str(exc.value)) == (code, message)
        exit_code, report = run_capture(capsys, ["certify", write_doc(tmp_path, doc(reg=reg))])
        assert exit_code == 1
        assert report["error"] == {"code": code, "message": message}

    def test_not_an_object(self):
        with pytest.raises(ProblemFormatError) as exc:
            load_problem_dict([1, 2, 3])
        assert exc.value.code == "BAD_TYPE"

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem(tmp_path / "missing.json")
        assert exc.value.code == "FILE_NOT_FOUND"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError) as exc:
            parse_problem(path)
        assert exc.value.code == "MALFORMED_JSON"

    def test_options_forwarded(self):
        d = doc(options={"tol": 1e-8, "max_iter": 500, "margin_tol": 1e-6})
        _, options = load_problem_dict(d)
        assert options == {"tol": 1e-8, "max_iter": 500, "margin_tol": 1e-6}


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


class TestCommands:
    def test_solve_reference(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        code, report = run_capture(capsys, ["solve", path])
        assert code == 0
        assert report["command"] == "solve"
        assert report["error"] is None
        assert len(report["inputs_digest"]) == 64
        assert list(report["solve"]) == [
            "x",
            "y",
            "iterations",
            "newton_steps",
            "fixed_point_residual",
            "objective",
            "converged",
        ]
        assert report["solve"]["converged"] is True
        assert report["solve"]["fixed_point_residual"] <= 1e-10
        assert 1 <= report["solve"]["newton_steps"] < report["solve"]["iterations"]
        assert np.allclose(report["solve"]["x"], [0.0, 1.0, 0.0], atol=1e-8)
        assert report["solve"]["objective"] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "problem,exit_code,classification",
        [
            (BASE_DOC, 0, GROUP_CLASSIFICATION_KEYS),
            (
                doc(phi=[[1.0, 1.0]], b=[2.0], reg={"kind": "group", "groups": [[1], [2]]}),
                2,
                GROUP_CLASSIFICATION_KEYS,
            ),
            (NUCLEAR_DOC, 0, ["kind", "rank", "unit_count", "sigma_x", "lambda_y"]),
        ],
        ids=["group-holding", "group-failing", "nuclear"],
    )
    def test_certificate_key_order(self, tmp_path, capsys, problem, exit_code, classification):
        # The literal lists here and in test_audit_key_order pin today's
        # report bytes; a new result field changes them on purpose.
        code, report = run_capture(capsys, ["certify", write_doc(tmp_path, problem)])
        assert code == exit_code
        cert = report["certificate"]
        assert list(cert) == [
            "holds",
            "margin",
            "subspace_dim",
            "gamma",
            "kkt_residual",
            "witness",
            "kind",
            "parameter_scope",
            "classification",
            "tolerances",
        ]
        assert list(cert["classification"]) == classification
        assert list(cert["tolerances"]) == ["class_tol", "kkt_tol", "margin_tol"]
        assert (cert["witness"] is not None) == (exit_code == 2)

    @pytest.mark.parametrize(
        "problem,flags,slacks,conjecture",
        [
            (BASE_DOC, [], ["group_growth"], False),
            (NUCLEAR_DOC, [], ["nuclear_growth_coarse", "nuclear_growth_tight"], False),
            (
                NUCLEAR_DOC,
                ["--conjecture"],
                ["nuclear_growth_coarse", "nuclear_growth_tight"],
                True,
            ),
        ],
        ids=["group", "nuclear", "nuclear-conjecture"],
    )
    def test_audit_key_order(self, tmp_path, capsys, problem, flags, slacks, conjecture):
        path = write_doc(tmp_path, problem)
        code, report = run_capture(capsys, ["qg-audit", path, "--samples", "50", *flags])
        assert code == 0
        audit = report["audit"]
        keys = ["kind", "samples", "used", "radius", "seed", "min_slack", "slack_by_constant"]
        keys += ["passed", "conjecture_min_slack"] if conjecture else ["passed"]
        assert list(audit) == keys + ["snap_distance"]
        assert list(audit["slack_by_constant"]) == slacks

    def test_each_section_is_its_results_fields_in_order(self, tmp_path, capsys):
        # Two adjustments only: a certificate's classification is its
        # as_dict(), and an audit drops an absent conjecture_min_slack and
        # ends with snap_distance.
        def names(result_type):
            return [f.name for f in dataclasses.fields(result_type)]

        for problem, reg in ((BASE_DOC, BASE_PAIRS), (NUCLEAR_DOC, NuclearShape(2, 2))):
            path = write_doc(tmp_path, problem)
            _, report = run_capture(capsys, ["certify", path])
            assert list(report["solve"]) == names(SolveResult)
            assert list(report["certificate"]) == names(StabilityCertificate)
            for command in ("perturb", "tilt-probe"):
                _, report = run_capture(capsys, [command, path, "--samples", "2"])
                assert list(report["perturbation"]) == names(PerturbationReport)
            for flags in ([], ["--conjecture"]):
                _, report = run_capture(capsys, ["qg-audit", path, "--samples", "50", *flags])
                expected = names(QGAuditReport)
                if not (flags and reg.growth_conjecture):
                    expected.remove("conjecture_min_slack")
                assert list(report["audit"]) == expected + ["snap_distance"]
                assert list(report["audit"]["slack_by_constant"]) == list(reg.growth_names)

    def test_certify_exit_codes(self, tmp_path, capsys):
        good = write_doc(tmp_path, doc(), "good.json")
        code, report = run_capture(capsys, ["certify", good])
        assert code == 0
        cert = report["certificate"]
        assert cert["holds"] is True
        assert cert["margin"] == pytest.approx(1.0, abs=1e-9)
        assert cert["subspace_dim"] == 2
        assert cert["parameter_scope"] == "(b, mu)"
        assert cert["classification"]["boundary_blocks"] == [1, 2]

        degenerate = write_doc(
            tmp_path,
            doc(
                phi=[[1.0, 1.0]],
                b=[2.0],
                reg={"kind": "group", "groups": [[1], [2]]},
            ),
            "degenerate.json",
        )
        code, report = run_capture(capsys, ["certify", degenerate])
        assert code == 2
        cert = report["certificate"]
        assert cert["holds"] is False
        assert cert["witness"] is not None
        assert np.linalg.norm(cert["witness"]) == pytest.approx(1.0)

    def test_infinite_margin_serializes_as_null(self, tmp_path, capsys):
        # data too weak to activate anything: no boundary blocks at all
        path = write_doc(
            tmp_path,
            doc(
                phi=[[1.0, 0.0], [0.0, 1.0]],
                b=[0.1, 0.2],
                reg={"kind": "group", "groups": [[1], [2]]},
            ),
        )
        code = run(["certify", path])
        out = capsys.readouterr().out
        assert code == 0
        assert '"margin":null' in out
        report = json.loads(out)
        assert report["certificate"]["holds"] is True
        assert report["certificate"]["subspace_dim"] == 0

    def test_error_report_shape(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, report = run_capture(capsys, ["solve", str(path)])
        assert code == 1
        assert report["error"]["code"] == "MALFORMED_JSON"
        assert report["inputs_digest"] is None
        assert report["solve"] is None
        assert report["certificate"] is None

    def test_not_a_solution_error_code(self, tmp_path, capsys):
        # unreachable tolerance turns the certify gate into an error; the
        # report keeps the digest and the solve that shows why
        path = write_doc(tmp_path, doc(options={"max_iter": 2}))
        code, report = run_capture(capsys, ["certify", path, "--tol", "1e-14"])
        assert code == 1
        assert report["error"]["code"] == "NotASolutionError"
        assert report["inputs_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert report["solve"]["converged"] is False
        assert report["solve"]["iterations"] == 2
        assert report["solve"]["newton_steps"] == 0
        assert report["certificate"] is None

    def test_reports_deterministic_modulo_timing(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        _, a = run_capture(capsys, ["certify", path])
        _, b = run_capture(capsys, ["certify", path])
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        out_file = tmp_path / "report.json"
        run(["solve", path, "--out", str(out_file)])
        printed = capsys.readouterr().out
        assert out_file.read_text() == printed

    def test_unwritable_out_file_still_prints_the_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        out_file = tmp_path / "missing" / "report.json"
        code, report = run_capture(capsys, ["solve", path, "--out", str(out_file)])
        assert code == 1
        assert not out_file.exists()
        assert report["error"]["code"] == "OUTPUT_NOT_WRITABLE"
        assert str(out_file) in report["error"]["message"]
        # The sections computed before the write are kept.
        assert report["inputs_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert report["solve"]["converged"] is True
        # An earlier error is the one reported.
        code, report = run_capture(capsys, ["solve", path, "--tol", "-1", "--out", str(out_file)])
        assert code == 1
        assert report["error"]["code"] == "UsageError"

    def test_qg_audit_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        code, report = run_capture(
            capsys, ["qg-audit", path, "--samples", "200", "--seed", "7"]
        )
        assert code == 0
        audit = report["audit"]
        assert audit["passed"] is True
        assert audit["min_slack"] >= -1e-9
        assert audit["snap_distance"] <= 1e-8
        assert audit["kind"] == "group"

    def test_perturb_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        code, report = run_capture(
            capsys, ["perturb", path, "--samples", "4", "--radius", "0.1"]
        )
        assert code == 0
        rep = report["perturbation"]
        assert rep["samples"] == 4
        assert rep["max_ratio"] > 0.0
        assert rep["non_converged"] == 0

    def test_tilt_probe_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, doc())
        code, report = run_capture(
            capsys, ["tilt-probe", path, "--samples", "4", "--radius", "1e-4"]
        )
        assert code == 0
        assert report["perturbation"]["max_ratio"] <= 10.0

    def test_reproduce_command(self, capsys):
        code, report = run_capture(capsys, ["reproduce-example-non", "--b2", "-1.5"])
        assert code == 0
        rep = report["reproduction"]
        assert rep["matches"] is True
        assert rep["predicted_x3"] == pytest.approx(0.5)
        assert rep["observed_x3"] == pytest.approx(0.5, abs=1e-6)
        assert report["certificate"]["holds"] is True

    def test_reproduce_certifies_at_the_given_tol(self, capsys):
        # At tol 1e-4 the solve stops with a KKT residual near 3e-6, which
        # the certificate accepts only at the same tolerance.
        argv = ["reproduce-example-non", "--b2", "0.5", "--tol", "1e-4"]
        code, report = run_capture(capsys, argv)
        assert code == 0
        assert report["error"] is None
        assert report["certificate"]["tolerances"]["kkt_tol"] == 1e-4
        assert report["reproduction"]["matches"] is True

    def test_reproduce_rejects_an_overflowing_b2(self, capsys):
        # ||b||^2 overflows: the same NOT_FINITE error a problem file with
        # this data gets, not a solve on an overflowed objective.
        code, report = run_capture(capsys, ["reproduce-example-non", "--b2", "1e200"])
        assert code == 1
        assert report["error"]["code"] == "NOT_FINITE"
        assert report["solve"] is None and report["certificate"] is None

    def test_bundled_example_loads(self):
        spec, options, _ = parse_problem(resources.files("stabcert") / "data/example_non.json")
        assert spec.phi.shape == (2, 3)
        assert spec.mu == 1.0
        assert options == {}


@pytest.mark.parametrize(
    "argv,options,code",
    [
        (["qg-audit", "P", "--radius", "nan"], None, "UsageError"),
        (["qg-audit", "P", "--radius", "-1"], None, "UsageError"),
        (["certify", "P", "--tol", "nan"], None, "UsageError"),
        (["certify", "P", "--tol", "0"], None, "UsageError"),
        (["solve", "P", "--tol", "inf"], None, "UsageError"),
        (["qg-audit", "P", "--samples", "-1"], None, "UsageError"),
        (["qg-audit", "P", "--seed", "-1"], None, "UsageError"),
        (["tilt-probe", "P", "--samples", "-3"], None, "UsageError"),
        (["tilt-probe", "P", "--starts", "0"], None, "UsageError"),
        (["perturb", "P", "--radius-mu", "-5"], None, "UsageError"),
        (["perturb", "P", "--radius", "inf"], None, "UsageError"),
        (["reproduce-example-non", "--b2", "nan"], None, "UsageError"),
        (["certify", "P"], {"margin_tol": -1e-3}, "BAD_TYPE"),
    ],
)
def test_out_of_range_numbers_give_json_error(tmp_path, capsys, argv, options, code):
    path = write_doc(tmp_path, doc() if options is None else doc(options=options))
    exit_code, report = run_capture(capsys, [path if a == "P" else a for a in argv])
    assert exit_code == 1
    assert report["error"]["code"] == code
    assert report["inputs_digest"] is None and report["solve"] is None
    assert report["certificate"] is None and report["audit"] is None


HUGE = 10**400  # an integer that no float can hold


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"mu": HUGE}, "mu must be finite"),
        ({"phi": [[1.0, HUGE, 0.0], [1.0, 0.0, -1.0]]}, "phi entry must be finite"),
        ({"b": [2.0, -HUGE]}, "b entry must be finite"),
    ],
)
def test_integer_overflow_gives_json_error(tmp_path, capsys, overrides, message):
    path = write_doc(tmp_path, doc(**overrides))
    exit_code, report = run_capture(capsys, ["certify", path])
    assert exit_code == 1
    assert report["error"] == {"code": "NOT_FINITE", "message": message}


@pytest.mark.parametrize(
    "phi,code",
    [
        ([[1.0, math.nan, "x"], [1.0, 0.0, -1.0]], "NOT_FINITE"),
        ([[1.0, "x", math.inf], [1.0, 0.0, -1.0]], "BAD_TYPE"),
        ([[1.0, HUGE, True], [1.0, 0.0, -1.0]], "NOT_FINITE"),
        ([[1.0, 0.0, 0.0], [None, 0.0, HUGE]], "BAD_TYPE"),
        ([[1, 2, 0], [np.float64(1.0), 0, -1]], None),
    ],
)
def test_first_bad_phi_entry_names_the_error(phi, code):
    if code is None:
        spec, _ = load_problem_dict(doc(phi=phi))
        assert spec.phi.tolist() == [[1.0, 2.0, 0.0], [1.0, 0.0, -1.0]]
        return
    with pytest.raises(ProblemFormatError) as exc:
        load_problem_dict(doc(phi=phi))
    assert exc.value.code == code


# What a JSON value can be that is not a finite real number.
NOT_A_NUMBER = ["2", None, True, False, [1.0], {}, HUGE, -HUGE, math.nan, math.inf, -math.inf]


@st.composite
def valid_documents(draw):
    """A valid group (singleton groups) or nuclear document, and its regularizer."""
    real = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        reg_doc = {"kind": "group", "groups": [[j + 1] for j in range(n)]}
        reg = GroupPartition.singletons(n)
    else:
        n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = n1 * n2
        reg_doc, reg = {"kind": "nuclear", "shape": [n1, n2]}, NuclearShape(n1, n2)
    m = draw(st.integers(1, 4))
    d = doc(
        phi=draw(st.lists(st.lists(real, min_size=n, max_size=n), min_size=m, max_size=m)),
        b=draw(st.lists(real, min_size=m, max_size=m)),
        mu=draw(st.floats(0.1, 10.0)),
        reg=reg_doc,
    )
    return d, reg


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_documents(), st.sampled_from(NOT_A_NUMBER), st.data())
def test_a_bad_number_gets_the_same_error_from_file_and_constructor(problem, value, data):
    d, reg = problem
    where = data.draw(st.sampled_from(["phi", "b", "mu"]))
    if where == "phi":
        row = data.draw(st.sampled_from(d["phi"]))
        row[data.draw(st.integers(0, len(row) - 1))] = value
    elif where == "b":
        d["b"][data.draw(st.integers(0, len(d["b"]) - 1))] = value
    else:
        d["mu"] = value
    with pytest.raises(ProblemFormatError) as loaded:
        load_problem_dict(d)
    with pytest.raises(ProblemFormatError) as direct:
        ProblemSpec(d["phi"], d["b"], d["mu"], reg)
    assert loaded.value.code in ("BAD_TYPE", "NOT_FINITE")
    assert (direct.value.code, str(direct.value)) == (loaded.value.code, str(loaded.value))


# Containers where phi or b belongs, each a function of the valid value.
PHI_FAULTS = {
    "number": lambda phi: 2.0,
    "empty": lambda phi: [],
    "null": lambda phi: None,
    "string": lambda phi: "phi",
    "flat-row": lambda phi: phi[0],
    "mixed": lambda phi: phi[:-1] + [1.0],
}
B_FAULTS = {
    "number": lambda b: 2.0,
    "string": lambda b: "b",
    "null": lambda b: None,
    "object": lambda b: {},
}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(valid_documents(), st.data())
def test_a_bad_container_gets_the_same_error_from_file_and_constructor(problem, data):
    # The shapes of phi and b are the constructors' rules alone.
    d, reg = problem
    where = data.draw(st.sampled_from(["phi", "b"]))
    faults = PHI_FAULTS if where == "phi" else B_FAULTS
    d[where] = faults[data.draw(st.sampled_from(sorted(faults)))](d[where])
    with pytest.raises(ProblemFormatError) as loaded:
        load_problem_dict(d)
    with pytest.raises(ProblemFormatError) as direct:
        ProblemSpec(d["phi"], d["b"], d["mu"], reg)
    assert loaded.value.code in ("BAD_TYPE", "DIMENSION_MISMATCH")
    assert (direct.value.code, str(direct.value)) == (loaded.value.code, str(loaded.value))


@pytest.mark.parametrize(
    "problem,reg",
    [
        (BASE_DOC, {"kind": "group", "groups": [[1, 2], [2, 3]]}),
        (NUCLEAR_DOC, {"kind": "nuclear", "shape": [2.5, 2]}),
    ],
    ids=["group-overlap", "nuclear-shape"],
)
def test_a_bad_phi_entry_comes_before_a_bad_regularizer(problem, reg):
    # phi is read first, for the partition's width, so its entries are
    # checked before the regularizer is built.
    d = copy.deepcopy(problem)
    d["phi"][0][1] = math.nan
    d["reg"] = reg
    with pytest.raises(ProblemFormatError) as exc:
        load_problem_dict(d)
    assert (exc.value.code, str(exc.value)) == ("NOT_FINITE", "phi entry must be finite")


REPO = Path(__file__).resolve().parent.parent


def test_every_problem_code_is_in_the_readme_table():
    raised = set()
    for path in sorted((REPO / "src" / "stabcert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ProblemFormatError":
                code = node.args[0]
                assert isinstance(code, ast.Constant), f"{path.name}:{node.lineno}"
                raised.add(code.value)
    lines = (REPO / "README.md").read_text().splitlines()
    start = lines.index("| Code | Rule | Raised by |") + 2
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines[start : lines.index("", start)]
    ]
    assert raised and raised <= {code.strip("`") for code, _, _ in rows}
    numbers = {(code, owner) for code, rule, owner in rows if "entry of `phi`" in rule}
    assert numbers == {("`BAD_TYPE`", "`ProblemSpec`"), ("`NOT_FINITE`", "`ProblemSpec`")}


# The CI smoke's 2x2 nuclear problem, whose solve takes the nuclear Newton path.
SMOKE_NUCLEAR_DOC = {
    "schema_version": "1",
    "phi": [
        [1.0, 0.2, 0.0, 0.3],
        [0.0, 1.0, 0.5, 0.0],
        [0.4, 0.0, 1.0, 0.2],
        [0.0, 0.3, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
    ],
    "b": [2.0, -1.0, 0.5, 1.5, 1.0],
    "mu": 2.7,
    "reg": {"kind": "nuclear", "shape": [2, 2]},
}
EXAMPLE_DOC = json.loads(
    resources.files("stabcert").joinpath("data/example_non.json").read_bytes()
)


@pytest.mark.parametrize(
    "problem,message",
    [
        (EXAMPLE_DOC, "optimality residual 3.791e-01 exceeds tolerance 1.000e-14"),
        (SMOKE_NUCLEAR_DOC, "optimality residual 2.517e-04 exceeds tolerance 1.000e-14"),
    ],
    ids=["group", "nuclear"],
)
def test_capped_solve_reports_the_residual_classification_measured(
    tmp_path, capsys, problem, message
):
    path = write_doc(tmp_path, dict(problem, options={"max_iter": 2}))
    exit_code, report = run_capture(capsys, ["certify", path, "--tol", "1e-14"])
    assert exit_code == 1
    assert report["error"] == {"code": "NotASolutionError", "message": message}


@pytest.mark.parametrize("problem", [EXAMPLE_DOC, SMOKE_NUCLEAR_DOC], ids=["group", "nuclear"])
def test_certify_and_audit_refuse_an_off_graph_pair_alike(tmp_path, capsys, problem):
    # (b, mu) scaled by 1e-6: the solve converges, but its pair is off the
    # graph by more than the default tolerance.  The audit's snap runs the
    # certificate's gate, so both commands print the same error object.
    scaled = dict(problem, b=[1e-6 * v for v in problem["b"]], mu=1e-6 * problem["mu"])
    path = write_doc(tmp_path, scaled)
    _, certified = run_capture(capsys, ["certify", path])
    _, audited = run_capture(capsys, ["qg-audit", path, "--samples", "20"])
    assert audited["error"] == certified["error"]
    assert audited["solve"] == certified["solve"]


@pytest.mark.parametrize("tol", ["1", "1.5"])
def test_a_tolerance_of_one_or_more_leaves_zero_dual_blocks_interior(tmp_path, capsys, tol):
    # The dual is (1, 0, 0): its zero blocks have no direction to give the
    # critical subspace, which took 0/0 and then a failing SVD.
    problem = {
        "schema_version": "1",
        "phi": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "b": [2.0, 0.0],
        "mu": 1.0,
        "reg": {"kind": "group", "groups": [[1], [2], [3]]},
    }
    path = write_doc(tmp_path, problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exit_code, report = run_capture(capsys, ["certify", path, "--tol", tol])
    assert exit_code == 0 and report["error"] is None
    assert report["certificate"]["holds"] is True
    assert report["certificate"]["classification"]["interior_blocks"] == [2, 3]


def _overflow_phi(problem):
    d = copy.deepcopy(problem)
    d["phi"][0][0] = 1e200
    return d


def _overflow_b(problem):
    d = copy.deepcopy(problem)
    d["b"][0] = 1e200
    d["mu"] = 1.0
    return d


@pytest.mark.parametrize("command", ["solve", "certify", "qg-audit", "perturb", "tilt-probe"])
@pytest.mark.parametrize("overflow", [_overflow_phi, _overflow_b], ids=["phi", "b"])
@pytest.mark.parametrize("problem", [BASE_DOC, SMOKE_NUCLEAR_DOC], ids=["group", "nuclear"])
def test_overflowing_solver_constants_give_json_error(
    tmp_path, capsys, problem, overflow, command
):
    # Finite data whose step 1/L underflows to 0 or whose ||b||^2 overflows:
    # the solve would otherwise stop at once and call its start converged.
    path = write_doc(tmp_path, overflow(problem))
    extra = ["--samples", "2"] if command != "solve" and command != "certify" else []
    exit_code, report = run_capture(capsys, [command, path] + extra)
    assert exit_code == 1
    assert report["error"]["code"] == "NOT_FINITE"
    assert report["inputs_digest"] is None and report["solve"] is None


def test_a_factorization_failure_gives_a_json_report(tmp_path, capsys, monkeypatch):
    from stabcert import stability

    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(stability, "restricted_min_singular", fail)
    path = write_doc(tmp_path, doc())
    exit_code, report = run_capture(capsys, ["certify", path])
    assert exit_code == 1
    assert report["error"] == {"code": "LinAlgError", "message": "SVD did not converge"}
    assert report["inputs_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert report["solve"]["converged"] is True
    assert report["certificate"] is None


@pytest.mark.parametrize("command", ["tilt-probe", "perturb"])
@pytest.mark.parametrize("problem", [EXAMPLE_DOC, SMOKE_NUCLEAR_DOC], ids=["example", "nuclear"])
def test_an_overflowing_ratio_prints_null(tmp_path, capsys, problem, command):
    # Norms overflow past about 1e154, so a ratio is inf / inf.  The capped
    # max_iter only shortens the solves, which do not converge either way.
    path = write_doc(tmp_path, dict(problem, options={"max_iter": 20}))
    with np.errstate(all="ignore"):
        exit_code, report = run_capture(
            capsys, [command, path, "--radius", "1e200", "--samples", "2"]
        )
    assert exit_code == 0
    assert report["perturbation"]["max_ratio"] is None


# Seed-0 nuclear-bank instance small-035: solved to --tol 1e-5 or 1e-4, it
# certifies at that tolerance, but its pair is off the subdifferential
# graph by more than the default certificate tolerance.
LOOSE_NUCLEAR_DOC = {
    "schema_version": "1",
    "phi": [
        [0.20193496760911098, 1.4265161351773292, 1.2251181609057717, -0.9789386378008987],
        [0.9324271551779146, -0.3641504306130296, 0.46128817413669315, 0.42120051989532825],
    ],
    "b": [0.5088577994418327, -0.09201962639357576],
    "mu": 0.3215727497578608,
    "reg": {"kind": "nuclear", "shape": [2, 2]},
}


@pytest.mark.parametrize("tol", ["1e-5", "1e-4"])
def test_audit_snaps_at_the_certificate_tolerance(tmp_path, capsys, tol):
    path = write_doc(tmp_path, LOOSE_NUCLEAR_DOC)
    exit_code, report = run_capture(capsys, ["certify", path, "--tol", tol])
    assert report["error"] is None and exit_code in (0, 2)
    exit_code, report = run_capture(capsys, ["qg-audit", path, "--tol", tol, "--samples", "50"])
    assert report["error"] is None and exit_code == 0
    assert report["audit"]["kind"] == "nuclear"


# Identity designs whose solutions have a dual value of 0.9999 on a zero
# direction: at --tol 1e-3 that direction counts as a unit one, so the
# audit must see the dual pinned to the unit sphere there.
NEAR_UNIT_NUCLEAR_DOC = {
    "schema_version": "1",
    "phi": np.eye(4).tolist(),
    "b": [2.0, 0.0, 0.0, 0.9999],
    "mu": 1.0,
    "reg": {"kind": "nuclear", "shape": [2, 2]},
}
NEAR_UNIT_GROUP_DOC = {
    "schema_version": "1",
    "phi": np.eye(2).tolist(),
    "b": [2.0, 0.9999],
    "mu": 1.0,
    "reg": {"kind": "group", "groups": [[1], [2]]},
}


def test_nuclear_certify_at_a_loose_tolerance_counts_the_near_unit_value(tmp_path, capsys):
    path = write_doc(tmp_path, NEAR_UNIT_NUCLEAR_DOC)
    exit_code, report = run_capture(capsys, ["certify", path, "--tol", "1e-3"])
    assert exit_code == 0 and report["error"] is None
    assert report["certificate"]["holds"] is True
    assert report["certificate"]["classification"]["unit_count"] == 2
    assert report["certificate"]["classification"]["rank"] == 1


@pytest.mark.parametrize(
    "problem", [NEAR_UNIT_NUCLEAR_DOC, NEAR_UNIT_GROUP_DOC], ids=["nuclear", "group"]
)
def test_audit_at_a_loose_tolerance_passes_on_a_near_unit_dual(tmp_path, capsys, problem):
    path = write_doc(tmp_path, problem)
    exit_code, report = run_capture(capsys, ["qg-audit", path, "--tol", "1e-3"])
    assert exit_code == 0 and report["error"] is None
    assert report["audit"]["passed"] is True
    assert report["audit"]["min_slack"] >= -1e-9


def test_undecodable_file_gives_json_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(BASE_DOC).encode("utf-16-le"))
    exit_code, report = run_capture(capsys, ["certify", str(path)])
    assert exit_code == 1
    assert report["error"]["code"] == "MALFORMED_JSON"
    exit_code, report = run_capture(capsys, ["certify", str(tmp_path)])
    assert exit_code == 1
    assert report["error"]["code"] == "FILE_NOT_FOUND"


def test_nuclear_audit_factors_the_snapped_pair_once(tmp_path, capsys, monkeypatch):
    from stabcert import nuclear

    real = nuclear.simultaneous_svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nuclear, "simultaneous_svd", counting)
    path = write_doc(tmp_path, NUCLEAR_DOC)
    exit_code, report = run_capture(capsys, ["qg-audit", path, "--samples", "50"])
    assert exit_code == 0
    assert report["audit"]["passed"] is True
    assert len(calls) == 1


def test_module_runs_as_a_script(tmp_path):
    import os
    import subprocess
    import sys

    import stabcert

    path = write_doc(tmp_path, doc())
    env = dict(os.environ, PYTHONPATH=str(Path(stabcert.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "stabcert.cli", "certify", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["command"] == "certify"
    assert report["error"] is None
    assert report["certificate"]["holds"] is True


# ---------------------------------------------------------------------------
# one parser per process


def _without_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


def test_second_run_builds_no_parser(tmp_path, capsys, monkeypatch):
    import argparse

    path = write_doc(tmp_path, doc())
    run_capture(capsys, ["certify", path])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, report = run_capture(capsys, ["certify", path])
    assert code == 0 and report["certificate"]["holds"] is True
    assert built == []


def test_flag_values_do_not_carry_over(tmp_path, capsys):
    path = write_doc(tmp_path, doc())
    _, first = run_capture(capsys, ["tilt-probe", path, "--samples", "3"])
    _, second = run_capture(capsys, ["tilt-probe", path])
    assert first["perturbation"]["samples"] == 3
    assert second["perturbation"]["samples"] == 20


def test_usage_error_help_and_version_leave_the_next_command_alone(tmp_path, capsys):
    from stabcert import __version__

    path = write_doc(tmp_path, doc())
    _, expected = run_capture(capsys, ["certify", path])
    for argv in (["certify", path, "--tol"], ["certify", path, "--samples", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage: stabcert" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == __version__ + "\n"
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["tilt-probe", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--samples" in helps[0]
    code, report = run_capture(capsys, ["certify", path])
    assert code == 0
    assert _without_timing(report) == _without_timing(expected)


def test_reproduce_factors_phi_once(capsys, monkeypatch):
    phi = np.array(EXAMPLE_DOC["phi"])
    real = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        if np.shape(a) == phi.shape and np.array_equal(a, phi):
            calls.append(1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    code, report = run_capture(capsys, ["reproduce-example-non", "--b2", "-1.5"])
    assert code == 0 and report["certificate"]["holds"] is True
    assert len(calls) == 1


def test_reproduce_reads_the_bundled_file_once(capsys, monkeypatch):
    import pathlib

    raw = resources.files("stabcert").joinpath("data/example_non.json").read_bytes()
    opened = []
    real_open = pathlib.Path.open

    def counting(self, *args, **kwargs):
        if self.name == "example_non.json":
            opened.append(1)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting)
    code, report = run_capture(capsys, ["reproduce-example-non", "--b2", "-1.5"])
    assert len(opened) == 1
    assert code == 0
    assert report["inputs_digest"] == hashlib.sha256(raw).hexdigest()
    assert report["reproduction"]["matches"] is True
    assert report["certificate"]["holds"] is True


# ---------------------------------------------------------------------------
# canonical JSON against the element-by-element writer

_reals = st.floats(allow_nan=True, allow_infinity=True)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _reals,
    st.text(max_size=8),
    _reals.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    arrays(np.float64, st.integers(0, 6), elements=_reals),
    arrays(np.float64, st.integers(0, 6), elements=st.floats(-1e300, 1e300)),
    arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=_reals),
    arrays(np.int64, st.integers(0, 4), elements=st.integers(-9, 9)),
)
_payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_dumps_canonical_matches_the_recursive_writer(obj):
    assert dumps_canonical(obj) == dumps_canonical_loop(obj)
