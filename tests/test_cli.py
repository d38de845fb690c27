import json

import numpy as np
import pytest

from chandet.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    SpecError,
    main,
    matrix_to_pairs,
    parse_channel_spec,
)
from chandet.qmath import haar_unitary


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def dep_spec(p=0.25):
    return {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": p}}


CNOT_SPEC = {"dims": [2, 2], "kind": "named", "name": "cnot"}
Z3_SPEC = {"dims": [3, 3], "kind": "named", "name": "z3"}
IDENTITY22_SPEC = {"dims": [2, 2], "kind": "named", "name": "identity"}


def unitary_spec(u):
    return {"dims": [2, 2], "kind": "named", "name": "unitary", "params": {"matrix": matrix_to_pairs(u)}}


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
# the same gate written as a unitary matrix and as a single Kraus matrix
CNOT_SPELLINGS = [
    CNOT_SPEC,
    unitary_spec(CNOT),
    {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(CNOT)]},
]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestSpecParsing:
    def test_named_cnot(self):
        ch = parse_channel_spec(CNOT_SPEC)
        assert ch.dims == (2, 2) and len(ch.kraus) == 1

    def test_named_depolarizing(self):
        ch = parse_channel_spec(dep_spec())
        assert len(ch.kraus) == 4

    def test_kraus_channel(self):
        spec = {
            "dims": [2],
            "kind": "kraus",
            "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        }
        ch = parse_channel_spec(spec)
        np.testing.assert_allclose(ch.kraus[0], np.eye(2))

    def test_unitary_param_matrix(self):
        spec = {
            "dims": [2],
            "kind": "named",
            "name": "unitary",
            "params": {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        }
        ch = parse_channel_spec(spec)
        np.testing.assert_allclose(ch.kraus[0], np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "named", "name": "cnot"},
            {"dims": [2, 0], "kind": "named", "name": "cnot"},
            {"dims": [2], "kind": "mystery"},
            {"dims": [2], "kind": "named", "name": "no_such_channel"},
            {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 1.5}},
            {"dims": [2], "kind": "kraus", "kraus": []},
            {"dims": [2], "kind": "kraus", "kraus": [[[1, 0], [0, 1]]]},
            {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": "0.3"}},
            {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": True}},
            {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 0.1, "d": 0}},
        ],
    )
    def test_schema_violations(self, spec):
        with pytest.raises(SpecError):
            parse_channel_spec(spec)

    def test_size_bound_precedes_parsing(self, tmp_path, capsys):
        big = {"dims": [37], "kind": "kraus", "kraus": "never read"}
        with pytest.raises(SpecError, match="above the limit 36"):
            parse_channel_spec(big)
        chan = write_spec(tmp_path, "id.json", IDENTITY22_SPEC)
        target = write_spec(tmp_path, "big.json", {"dims": [37], "kind": "named", "name": "identity"})
        for spec in (target, chan):
            code, out, err = run(capsys, "detect-sru", "--channel", spec, "--target", target)
            assert code == EXIT_INPUT_ERROR and out == ""
            assert "above the limit 36" in err

    def test_starts_bound_precedes_the_optimizer(self, tmp_path, capsys, monkeypatch):
        from chandet import cli

        def no_optimizer(*args, **kwargs):
            raise AssertionError("the optimizer must not run")

        monkeypatch.setattr(cli, "alpha_sru_optimize", no_optimizer)
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        argv = ["detect-sep", "--channel", path, "--starts", str(cli.MAX_STARTS + 1)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert f"above the limit {cli.MAX_STARTS}" in err

    def test_tp_deficit_reported(self):
        from chandet.channels import ValidationError

        bad = {
            "dims": [2],
            "kind": "kraus",
            "kraus": [[[[0.9486832980505138, 0], [0, 0]], [[0, 0], [0.9486832980505138, 0]]]],
        }
        with pytest.raises(ValidationError, match=r"0\.1"):
            parse_channel_spec(bad)  # sum A^dag A = 0.9 I, deficit 0.1


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "detect-eb", "--channel", "/nonexistent.json")
        assert code == EXIT_INPUT_ERROR and "not found" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and "invalid JSON" in err

    @pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"\xff\xfe{"), lambda p: p.mkdir()])
    def test_unreadable_spec_is_input_error(self, tmp_path, capsys, make):
        path = tmp_path / "spec.json"
        make(path)
        code, out, _ = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""

    def test_wrong_dims_for_command(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, _, err = run(capsys, "detect-eb", "--channel", path)
        assert code == EXIT_INPUT_ERROR and "dims" in err

    def test_tp_failure_is_numerical(self, tmp_path, capsys):
        bad = {
            "dims": [2],
            "kind": "kraus",
            "kraus": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]],
        }
        path = write_spec(tmp_path, "bad.json", bad)
        code, _, err = run(capsys, "detect-eb", "--channel", path)
        assert code == EXIT_NUMERICAL_ERROR and "trace preserving" in err

    def test_non_unitary_target_is_numerical(self, tmp_path, capsys):
        spec = {
            "dims": [2, 2],
            "kind": "kraus",
            "kraus": [[
                [[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [1, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0.5, 0]],
            ]],
        }
        # detect-sep does not demand TP, so the single non-unitary Kraus
        # operator reaches the unitarity gate of the witness construction
        path = write_spec(tmp_path, "nonunitary.json", spec)
        code, _, err = run(capsys, "detect-sep", "--channel", path)
        assert code == EXIT_NUMERICAL_ERROR and "unitary" in err

    def test_nan_kraus_entry_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dims":[2],"kind":"kraus","kraus":[[[[NaN,0],[0,0]],[[0,0],[1,0]]]]}')
        code, out, err = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "NaN" in err

    def test_nan_kraus_entry_detect_npt(self, tmp_path, capsys):
        identity = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        spec = {"dims": [2, 2], "kind": "kraus", "kraus": [identity]}
        spec["kraus"][0][1][1] = [float("nan"), 0.0]
        path = write_spec(tmp_path, "nan22.json", spec)  # json writes the bare token NaN
        code, out, _ = run(capsys, "detect-npt", "--channel", path)
        assert code == EXIT_INPUT_ERROR and out == ""

    def test_overflowing_number_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "inf.json"  # json reads 1e400 as inf without calling parse_constant
        path.write_text('{"dims":[2],"kind":"kraus","kraus":[[[[1e400,0],[0,0]],[[0,0],[1,0]]]]}')
        code, out, err = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", ["choi", "detect-eb"])
    def test_overflowing_kraus_entries_warn_nothing(self, tmp_path, command):
        import subprocess
        import sys

        spec = {"dims": [2], "kind": "kraus", "kraus": [[[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]]}
        path = write_spec(tmp_path, "huge.json", spec)
        proc = subprocess.run(
            [sys.executable, "-m", "chandet.cli", command, "--channel", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL_ERROR and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:")

    def test_verdicts_are_not_exit_codes(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec(1.0))  # EB channel, undetected
        code, out, _ = run(capsys, "detect-eb", "--channel", path)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["verdict"] == "undetected"


class TestPipelines:
    def test_detect_eb_quarter(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec(0.25))
        payload = run_json(capsys, "detect-eb", "--channel", path)
        res = payload["results"]
        assert res["expectation"] == pytest.approx(-0.25, abs=1e-12)
        assert res["verdict"] == "not_entanglement_breaking"
        assert res["bounds"]["mu_c_lb"] == pytest.approx(1 / 3, abs=1e-12)
        assert res["bounds"]["robustness_lb"] == pytest.approx(0.5, abs=1e-12)

    def test_detect_npt_cnot(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "detect-npt", "--channel", path)["results"]
        assert res["lambda_minus"] == pytest.approx(-0.5, abs=1e-9)
        assert res["noise_p"] == pytest.approx(8 / 9, abs=0)
        assert res["threshold"] == pytest.approx(1 / 18, abs=1e-12)
        assert abs(res["expectation"]) < 1e-10
        assert res["verdict"] == "npt_detected"

    def test_schmidt_z3(self, tmp_path, capsys):
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        res = run_json(capsys, "schmidt", "--channel", path)["results"]
        s17 = np.sqrt(17)
        assert res["rank"] == 2
        assert res["sigmas"][0] == pytest.approx(np.sqrt((9 + s17) / 2) / 3, abs=1e-9)
        assert res["sigmas"][1] == pytest.approx(np.sqrt((9 - s17) / 2) / 3, abs=1e-9)
        assert res["sum_sigma_sq"] == pytest.approx(1.0, abs=1e-10)

    def test_detect_sru_cnot_uses_exact_alpha(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "detect-sru", "--channel", path)["results"]
        assert res["alpha_source"] == "sigma_1"
        assert res["alpha_sru_sq"] == res["alpha_s_sq"]
        assert res["thresholds"]["not_separable"] == 0.0
        assert res["alpha_sru_sq"] == pytest.approx(0.5, abs=1e-15)
        assert res["expectation"] == pytest.approx(-0.5, abs=1e-10)
        assert res["verdict"] == "not_separable"  # both thresholds coincide for qubits

    def test_detect_sep_z3(self, tmp_path, capsys):
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        res = run_json(
            capsys, "detect-sep", "--channel", path, "--starts", "50", "--seed", "1"
        )["results"]
        assert res["alpha_source"] == "optimizer"
        assert res["alpha_sru"] == pytest.approx(0.786, abs=0.01)
        assert res["verdict"] == "not_separable"
        assert res["rank"] == 2
        assert res["thresholds"]["not_separable"] == pytest.approx(
            res["alpha_sru_sq"] - res["alpha_s_sq"], abs=0
        )

    def test_detect_sru_with_target(self, tmp_path, capsys):
        chan = write_spec(tmp_path, "id.json", {"dims": [2, 2], "kind": "named", "name": "identity"})
        target = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "detect-sru", "--channel", chan, "--target", target)["results"]
        assert res["alpha_source"] == "sigma_1"
        assert res["expectation"] == pytest.approx(0.25, abs=1e-12)
        assert res["verdict"] == "undetected"

    def test_decompose_witness_cnot(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "decompose-witness", "--channel", path)["results"]
        assert res["setting_count"] == 9
        assert len(res["terms"]) == 16
        strings = {t["string"]: t["coefficient"] for t in res["terms"]}
        assert strings["IIII"] == pytest.approx(7 / 16)
        assert strings["XXXI"] == pytest.approx(-1 / 16)

    def test_decompose_witness_stabilizer(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "decompose-witness", "--channel", path, "--witness", "stabilizer")[
            "results"
        ]
        assert res["setting_count"] == 2
        assert {s["bases"] for s in res["settings"]} == {"XXXX", "ZZZZ"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect-sru"],
            ["detect-sep"],
            ["decompose-witness", "--witness", "sru"],
            ["decompose-witness", "--witness", "stabilizer"],
            ["simulate", "--witness", "stabilizer", "--shots", "500", "--seed", "2"],
        ],
    )
    def test_cnot_results_do_not_depend_on_spelling(self, tmp_path, capsys, argv):
        results = []
        for i, spec in enumerate(CNOT_SPELLINGS):
            path = write_spec(tmp_path, f"cnot{i}.json", spec)
            results.append(run_json(capsys, *argv, "--channel", path)["results"])
        assert results[0] == results[1] == results[2]

    def test_two_qubit_alpha_is_sigma_1(self, tmp_path, capsys, monkeypatch):
        from chandet import cli
        from chandet.qmath import haar_unitary

        def no_optimizer(*args, **kwargs):
            raise AssertionError("two-qubit gates must not run the optimizer")

        monkeypatch.setattr(cli, "alpha_sru_optimize", no_optimizer)
        path = write_spec(tmp_path, "haar.json", unitary_spec(haar_unitary(4, 7)))
        res = run_json(capsys, "detect-sep", "--channel", path)["results"]
        assert res["alpha_source"] == "sigma_1"
        assert res["alpha_sru_sq"] == res["alpha_s_sq"]
        assert res["alpha_sru"] == res["sigmas"][0]

    def test_product_gate_alpha_is_clipped_at_one(self, tmp_path, capsys):
        from chandet.detect import operator_schmidt
        from chandet.qmath import haar_unitary

        u = np.kron(haar_unitary(2, 56), haar_unitary(2, 57))
        assert operator_schmidt(u, 2, 2).sigmas[0] ** 2 > 1.0  # rounding
        path = write_spec(tmp_path, "prod.json", unitary_spec(u))
        res = run_json(capsys, "detect-sru", "--channel", path)
        assert res["results"]["alpha_sru_sq"] == 1.0

    @pytest.mark.parametrize(
        "command, spec",
        [
            # depolarizing at p = 1/2 is exactly entanglement breaking; Tr[W C] = -8e-17
            ("detect-eb", dep_spec(0.5)),
            # a product gate against itself: expectation 5e-16 below the rounded threshold
            (
                "detect-sru",
                unitary_spec(np.kron(haar_unitary(2, 56), haar_unitary(2, 57))),
            ),
        ],
    )
    def test_rounding_below_a_threshold_is_no_verdict(self, tmp_path, capsys, command, spec):
        path = write_spec(tmp_path, "chan.json", spec)
        res = run_json(capsys, command, "--channel", path)["results"]
        assert res["expectation"] < 0.0
        assert res["verdict"] == "undetected"

    def test_detect_eb_rounding_gives_no_bound(self, tmp_path, capsys):
        # depolarizing at p = 1/2 is exactly entanglement breaking; Tr[W C] = -8e-17
        path = write_spec(tmp_path, "dep.json", dep_spec(0.5))
        res = run_json(capsys, "detect-eb", "--channel", path)["results"]
        assert res["expectation"] < 0.0 and res["verdict"] == "undetected"
        assert res["bounds"]["robustness_lb"] == 0.0
        assert res["bounds"]["mu_c_lb"] == 0.0

    @pytest.mark.parametrize("command", ["detect-sru", "detect-sep"])
    @pytest.mark.parametrize("spec", [CNOT_SPEC, Z3_SPEC], ids=["cnot", "z3"])
    def test_one_schmidt_decomposition_per_request(
        self, tmp_path, capsys, monkeypatch, command, spec
    ):
        from chandet import cli, detect

        calls = []
        real = detect.operator_schmidt

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(detect, "operator_schmidt", counting)
        monkeypatch.setattr(cli, "operator_schmidt", counting)
        path = write_spec(tmp_path, "gate.json", spec)
        run_json(capsys, command, "--channel", path, "--target", path, "--starts", "3")
        assert calls == [tuple(spec["dims"])]

    @pytest.mark.parametrize("witness", ["sru", "ppt"])
    def test_simulate_decomposes_the_witness_once(self, tmp_path, capsys, monkeypatch, witness):
        from chandet import cli, measure

        calls = []
        real = measure.pauli_decompose

        def counting(op, *args, **kwargs):
            calls.append(op.shape)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(measure, "pauli_decompose", counting)
        monkeypatch.setattr(cli, "pauli_decompose", counting)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = ["simulate", "--channel", path, "--witness", witness, "--shots", "200"]
        res = run_json(capsys, *argv)["results"]
        assert calls == [(16, 16)]
        assert res["setting_count"] > 0

    @pytest.mark.parametrize("command", ["decompose-witness", "simulate"])
    def test_stabilizer_witness_for_noisy_cnot_target(self, tmp_path, capsys, command):
        kraus = [np.sqrt(0.9) * CNOT, np.sqrt(0.1) * np.kron(np.eye(2), [[0, 1], [1, 0]]) @ CNOT]
        spec = {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(k) for k in kraus]}
        chan = write_spec(tmp_path, "noisy.json", spec)
        target = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = [command, "--channel", chan, "--target", target, "--witness", "stabilizer"]
        res = run_json(capsys, *argv, "--shots", "200")["results"]
        assert res["witness"] == "stabilizer" and res["setting_count"] == 2

    @pytest.mark.parametrize(
        "channel, target", [(IDENTITY22_SPEC, None), (CNOT_SPEC, IDENTITY22_SPEC)]
    )
    def test_stabilizer_witness_rejects_other_gates(self, tmp_path, capsys, channel, target):
        argv = ["decompose-witness", "--witness", "stabilizer"]
        argv += ["--channel", write_spec(tmp_path, "chan.json", channel)]
        if target is not None:
            argv += ["--target", write_spec(tmp_path, "target.json", target)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "CNOT reference gate" in err

    def test_decompose_witness_eb(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        res = run_json(capsys, "decompose-witness", "--channel", path)["results"]
        assert res["witness"] == "eb"
        assert res["setting_count"] == 3

    def test_choi_pipeline(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec(0.75))
        res = run_json(capsys, "choi", "--channel", path)["results"]
        assert res["trace"] == pytest.approx(1.0, abs=1e-12)
        m = np.array([[complex(re, im) for re, im in row] for row in res["matrix"]])
        np.testing.assert_allclose(m, np.eye(4) / 4, atol=1e-12)

    def test_detect_eb_with_shots(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec(0.0))
        res = run_json(
            capsys, "detect-eb", "--channel", path, "--shots", "50000", "--seed", "4"
        )["results"]
        est = res["estimate"]
        assert est["shots_per_setting"] == 50000
        assert abs(est["value"] - (-0.5)) <= 5 * max(est["std_error"], 1e-12)

    def test_simulate_cnot(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "simulate", "--channel", path, "--shots", "2000")["results"]
        assert res["setting_count"] == 9
        assert res["exact"] == pytest.approx(-0.5, abs=1e-10)
        assert res["estimate"]["value"] == pytest.approx(-0.5, abs=1e-9)

    def test_simulate_ppt_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(
            capsys, "simulate", "--channel", path, "--witness", "ppt", "--shots", "4000"
        )["results"]
        assert res["exact"] == pytest.approx(0.0, abs=1e-10)
        est = res["estimate"]
        assert abs(est["value"] - res["exact"]) <= 5 * max(est["std_error"], 1e-3)


    def test_detect_npt_shots_on_ppt_channel(self, tmp_path, capsys):
        path = write_spec(tmp_path, "id.json", {"dims": [2, 2], "kind": "named", "name": "identity"})
        res = run_json(capsys, "detect-npt", "--channel", path, "--shots", "1000")["results"]
        assert res["verdict"] == "not_detected"
        assert res["expectation"] is None and res["estimate"] is None

    def test_simulate_ppt_witness_on_ppt_channel(self, tmp_path, capsys):
        path = write_spec(tmp_path, "id.json", {"dims": [2, 2], "kind": "named", "name": "identity"})
        code, out, err = run(capsys, "simulate", "--channel", path, "--witness", "ppt")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "lambda_minus" in err

    def test_ppt_refusal_is_stable_under_kraus_order(self, tmp_path, capsys):
        from chandet.ensembles import random_sru_channel

        # lambda_- of an SRU mixture is rounding, +-1e-16, and moves with the Kraus order
        kraus = random_sru_channel((2, 2), seed=0).kraus
        refusals = []
        for ops in (kraus, kraus[::-1]):
            spec = {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(k) for k in ops]}
            path = write_spec(tmp_path, "sru.json", spec)
            code, out, err = run(capsys, "simulate", "--channel", path, "--witness", "ppt")
            assert code == EXIT_INPUT_ERROR and out == ""
            refusals.append(err)
        assert refusals[0] == refusals[1]


class TestRendering:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        args = ("detect-sep", "--channel", path, "--starts", "10", "--seed", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_json_round_trip(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        code, out, _ = run(capsys, "detect-eb", "--channel", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["inputs"]["channel"] == dep_spec()

    def test_float_precision_is_preserved(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec(1 / 3))
        out = run_json(capsys, "detect-eb", "--channel", path)
        # round-tripping through the rendered JSON loses no precision
        assert out["inputs"]["channel"]["params"]["p"] == 1 / 3
        assert out["results"]["expectation"] == 1 / 3 - 0.5

    def test_text_mode_npt_fields(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, _ = run(capsys, "detect-npt", "--channel", path, "--format", "text")
        assert code == EXIT_OK
        for needle in ("lambda_minus:", "noise_p:", "threshold:", "verdict: npt_detected"):
            assert needle in out

    def test_non_finite_result_is_numerical_failure(self):
        from chandet.channels import ValidationError
        from chandet.cli import Report, render_report

        report = Report("detect-eb", {}, {}, {"expectation": float("nan")})
        with pytest.raises(ValidationError, match="non-finite"):
            render_report(report)

    def test_elapsed_not_in_json(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        payload = run_json(capsys, "detect-eb", "--channel", path)
        assert "elapsed" not in json.dumps(payload)

    def test_expectation_matches_library_bit_for_bit(self, tmp_path, capsys):
        from chandet.channels import depolarizing_channel
        from chandet.detect import eb_witness, evaluate_witness

        path = write_spec(tmp_path, "dep.json", dep_spec(0.3))
        res = run_json(capsys, "detect-eb", "--channel", path)["results"]
        assert res["expectation"] == evaluate_witness(eb_witness(), depolarizing_channel(0.3))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        proc = subprocess.run(
            [sys.executable, "-m", "chandet.cli", "detect-npt", "--channel", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["results"]["verdict"] == "npt_detected"
        assert proc.stderr == ""

    def test_module_invocation_error_to_stderr(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "chandet.cli", "detect-eb", "--channel", "/missing.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert "not found" in proc.stderr
