import argparse
import hashlib
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chandet import cli
from chandet.channels import z3_channel
from chandet.cli import (
    COMMANDS,
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    SpecError,
    build_parser,
    main,
    parse_channel_spec,
)
from chandet.detect import (
    alpha_sru_optimize,
    build_sru_witness,
    decide,
    evaluate_witness,
    operator_schmidt,
)
from chandet.pptdetect import detect_npt
from chandet.qmath import haar_unitary
from support import matrix_to_pairs, random_channel, random_density_matrix


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def dep_spec(p=0.25):
    return {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": p}}


CNOT_SPEC = {"dims": [2, 2], "kind": "named", "name": "cnot"}
Z3_SPEC = {"dims": [3, 3], "kind": "named", "name": "z3"}
IDENTITY22_SPEC = {"dims": [2, 2], "kind": "named", "name": "identity"}
# Every command that needs a channel on two systems, on each kind of dims it refuses; measurement
# serves [2] and [2, 2] only, so [2] is what simulate and decompose-witness have left to refuse.
TWO_PARTY_REFUSALS = [
    *(
        ([command], dims)
        for command in ("detect-npt", "detect-sru", "detect-sep", "schmidt")
        for dims in ([4], [2, 2, 2], [1, 4], [2, 1])
    ),
    *((["simulate", "--witness", kind], [2]) for kind in ("sru", "stabilizer", "ppt")),
    *((["decompose-witness", "--witness", kind], [2]) for kind in ("sru", "stabilizer")),
]
# The pipeline options each command takes, in the order its report echoes them; it offers these and
# --format besides --channel. --seed and --shots go with sampling, --starts with the optimizer, which
# only a detect command on d >= 3 runs, and --target with a witness built from a reference gate.
PIPELINE_OPTIONS = {
    "choi": (),
    "schmidt": (),
    "decompose-witness": ("witness", "target"),
    "detect-eb": ("seed", "shots"),
    "detect-npt": ("seed", "shots"),
    "detect-sru": ("seed", "shots", "starts", "target"),
    "detect-sep": ("seed", "shots", "starts", "target"),
    "simulate": ("seed", "shots", "witness", "target"),
}
# the value of each pipeline option where it is not given
OPTION_DEFAULTS = {"seed": 0, "shots": None, "starts": 50, "witness": None, "target": None}
# a value each option takes on every command that offers it
OPTION_VALUES = {
    "--format": "text", "--shots": "7", "--seed": "3", "--starts": "9", "--target": "cnot.json", "--witness": "eb"
}
# Channel's refusal of a map that is not trace preserving, as main reports it
NON_TP_REFUSAL = "validation error: Kraus operators are not trace preserving"
# the refusal texts after the words that name what was run, given the dims
TWO_PARTY_RULE = " needs dims [d_A, d_B] with d_A, d_B >= 2, got {}"
EB_RULE = ": the eb witness needs prod(dims) >= 2, got dims {}"
# the most digits json may parse as one int (sys.get_int_max_str_digits), 0 when there is no limit
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Every request that measures a Choi state: simulate and decompose-witness always, detect-* with --shots.
MEASURING = [
    ["simulate"],
    ["decompose-witness"],
    *([f"detect-{kind}", "--shots", "100"] for kind in ("eb", "sru", "sep", "npt")),
]


def measurement_refusal(argv, choi_dims):
    what = argv[0] + (" --shots" if "--shots" in argv else "")
    return f"{what}: the Choi state needs dims of at most 4 qubits, got {choi_dims}"


def refuse_measurement(monkeypatch):
    """Make every witness builder and the Pauli tables refuse work."""
    from chandet import measure

    monkeypatch.setattr(measure, "_pauli_tables", refuse_work)
    for name in ("eb_witness", "stabilizer_witness", "build_sru_witness", "operator_schmidt", "detect_npt"):
        monkeypatch.setattr(cli, name, refuse_work)


def unitary_spec(u):
    return {"dims": [2, 2], "kind": "named", "name": "unitary", "params": {"matrix": matrix_to_pairs(u)}}


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
# the same gate written as a unitary matrix and as a single Kraus matrix
CNOT_SPELLINGS = [
    CNOT_SPEC,
    unitary_spec(CNOT),
    {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(CNOT)]},
]


def refuse_work(*args, **kwargs):
    raise AssertionError("the request must be refused before any work")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_to_exit(capsys, *argv):
    """``run``, where a refusal by the parser, which exits, gives its exit code too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
            {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 0.25, "d": 2.9}},
            {"dims": [1], "kind": "named", "name": "depolarizing", "params": {"p": 0.5}},
            # a param the channel does not take; d restates dims, so depolarizing takes none
            {"dims": [2, 2], "kind": "named", "name": "cnot", "params": {"p": 0.3}},
            {"dims": [2], "kind": "named", "name": "identity", "params": {"sigma": [[[1, 0]]]}},
            {"dims": [3], "kind": "named", "name": "depolarizing", "params": {"p": 0.1, "d": 3}},
            {"dims": [2], "kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "params": {}},
        ],
    )
    def test_schema_violations(self, spec):
        with pytest.raises(SpecError):
            parse_channel_spec(spec)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_param_the_channel_does_not_take(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, "cnot.json", {**CNOT_SPEC, "params": {"p": 0.3}})
        code, out, err = run(capsys, command, "--channel", path)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "cnot channel takes no params.p" in err

    @pytest.mark.parametrize(
        "constructor, spec, message",
        [
            ("depolarizing_channel", {**dep_spec(0.1), "dims": [36, 1]}, "[36, 1] do not match depolarizing dims (36,)"),
            ("depolarizing_channel", {**dep_spec(1.5), "dims": [2, 2]}, "[2, 2] do not match depolarizing dims (2,)"),
            ("cnot_channel", {**CNOT_SPEC, "dims": [4]}, "[4] do not match cnot dims (2, 2)"),
            ("z3_channel", {**Z3_SPEC, "dims": [3, 3, 1]}, "[3, 3, 1] do not match z3 dims (3, 3)"),
        ],
    )
    def test_dims_mismatch_refused_before_the_build(self, monkeypatch, constructor, spec, message):
        # depolarizing on [36, 1] would build 1 296 Kraus operators before the refusal
        monkeypatch.setattr(cli, constructor, refuse_work)
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(spec)
        assert str(exc.value) == f"dims {message}"

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
        from chandet import detect

        def no_optimizer(*args, **kwargs):
            raise AssertionError("the optimizer must not run")

        monkeypatch.setattr(detect, "_haar_stack", no_optimizer)
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        code, out, err = run(capsys, "detect-sep", "--channel", path, "--starts", "8247")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == "input error: detect-sep: starts must be >= 1 and at most 8246 on dims [3, 3], got 8247\n"
        # the bound is on the optimizer's work, and two-qubit gates take sigma_1 without it
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        assert run_json(capsys, "detect-sep", "--channel", path, "--starts", "8247")["results"]["verdict"]

    def test_shots_bound(self, tmp_path, capsys):
        # the sampler draws int64 multinomial counts; a larger --shots used to escape as OverflowError
        path = write_spec(tmp_path, "dep.json", dep_spec())
        code, out, err = run(capsys, "detect-eb", "--channel", path, "--shots", "99999999999999999999")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "above the limit 9223372036854775807" in err

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

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("{not json", id="syntax"),
            pytest.param("[" * 100_000, id="nested_past_recursion_limit"),
            pytest.param(
                "1" * (INT_DIGIT_LIMIT + 1),
                id="integer_past_digit_limit",
                marks=pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this Python parses ints of any length"),
            ),
        ],
    )
    def test_invalid_json(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        code, out, err = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"input error: invalid JSON in {path}: ")

    @pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"\xff\xfe{"), lambda p: p.mkdir()])
    def test_unreadable_spec_is_input_error(self, tmp_path, capsys, make):
        path = tmp_path / "spec.json"
        make(path)
        code, out, _ = run(capsys, "detect-eb", "--channel", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""

    def test_wrong_dims_for_command(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        code, _, err = run(capsys, "detect-sru", "--channel", path)
        assert code == EXIT_INPUT_ERROR and "dims" in err

    @pytest.mark.parametrize("command", ["choi", "schmidt", "decompose-witness"])
    @pytest.mark.parametrize("shots", ["0", "100"])
    def test_shots_refused_where_nothing_is_sampled(self, tmp_path, capsys, monkeypatch, command, shots):
        # the parser refuses it before any file is read
        monkeypatch.setattr(cli, "_read_spec_file", refuse_work)
        monkeypatch.setattr(cli, "parse_channel_spec", refuse_work)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, err = run_to_exit(capsys, command, "--channel", path, "--shots", shots)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "unrecognized arguments: --shots" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["choi", "--shots", "5"], "unrecognized arguments: --shots"),
            (["choi", "--seed", "3"], "unrecognized arguments: --seed"),
            (["choi", "--starts", "7", "--seed", "3"], "unrecognized arguments: --starts 7 --seed 3"),
            (["detect-npt", "--starts", "9"], "unrecognized arguments: --starts"),
            (["simulate", "--starts", "2"], "unrecognized arguments: --starts"),
            (["detect-eb", "--seed", "-1"], "--seed must be non-negative"),
            (["detect-sep", "--starts", "0"], "--starts must be >= 1"),
            (["simulate", "--shots", "0"], "omit --shots for the default of 100000"),
        ],
        ids=[
            "choi-shots",
            "choi-seed",
            "choi-starts",
            "detect-npt-starts",
            "simulate-starts",
            "detect-eb-seed",
            "detect-sep-starts",
            "simulate-zero-shots",
        ],
    )
    def test_options_refused_before_the_channel_is_built(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_build(*args, **kwargs):
            raise AssertionError("the channel must not be built")

        monkeypatch.setattr(cli, "parse_channel_spec", no_build)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, err = run_to_exit(capsys, *argv, "--channel", path)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert message in err

    def test_option_fault_is_reported_before_a_channel_fault(self, tmp_path, capsys):
        not_tp = {"dims": [2], "kind": "kraus", "kraus": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]]}
        path = write_spec(tmp_path, "bad.json", not_tp)
        code, out, err = run(capsys, "simulate", "--channel", path, "--shots", "0")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "omit --shots" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_takes_exactly_the_options_it_reads(self, capsys, command):
        offered = {"--format", *(f"--{name}" for name in PIPELINE_OPTIONS[command])}
        args = build_parser().parse_args([command, "--channel", "spec.json"])
        # every pipeline option reads as its one default where it is not given, offered or not
        assert {name: getattr(args, name) for name in OPTION_DEFAULTS} == OPTION_DEFAULTS
        for option, value in OPTION_VALUES.items():
            argv = [command, "--channel", "spec.json", option, value]
            if option in offered:
                assert str(getattr(build_parser().parse_args(argv), option[2:])) == value
            else:
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(argv)
                assert exc.value.code == EXIT_INPUT_ERROR
                assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, prefix, option, value",
        [
            ("detect-sep", "--st", "--starts", "7"),
            ("choi", "--f", "--format", "text"),
            ("simulate", "--wit", "--witness", "eb"),
        ],
        ids=["detect-sep-st", "choi-f", "simulate-wit"],
    )
    def test_abbreviated_options_refused(self, capsys, monkeypatch, command, prefix, option, value):
        # the full name parses, as two arguments or as one with "="
        for given in ([option, value], [f"{option}={value}"]):
            args = build_parser().parse_args([command, "--channel", "spec.json", *given])
            assert str(getattr(args, option[2:])) == value
        # a prefix of it is refused by the parser before any file is read
        monkeypatch.setattr(cli, "_read_spec_file", refuse_work)
        code, out, err = run_to_exit(capsys, command, "--channel", "spec.json", prefix, value)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert f"unrecognized arguments: {prefix} {value}" in err

    @pytest.mark.parametrize("command", ["detect-sru", "detect-sep"])
    def test_refusals_name_the_command_run(self, tmp_path, capsys, command):
        dep = write_spec(tmp_path, "dep.json", dep_spec())
        code, out, err = run(capsys, command, "--channel", dep)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"input error: {command} needs dims [d_A, d_B] with d_A, d_B >= 2, got [2]\n"
        noisy = {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(np.sqrt(0.5) * CNOT)] * 2}
        path = write_spec(tmp_path, "noisy.json", noisy)
        code, out, err = run(capsys, command, "--channel", path)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"input error: {command} needs a single-Kraus channel, got 2 operators\n"

    @pytest.mark.parametrize(
        "argv, channel, target",
        [
            (["detect-sru"], Z3_SPEC, CNOT_SPEC),
            (["detect-sep"], Z3_SPEC, CNOT_SPEC),
            (["decompose-witness", "--witness", "sru"], CNOT_SPEC, Z3_SPEC),
            (["simulate", "--witness", "stabilizer"], CNOT_SPEC, Z3_SPEC),
        ],
        ids=["detect-sru", "detect-sep", "decompose-witness", "simulate"],
    )
    def test_target_dims_refusal_names_the_command(self, tmp_path, capsys, argv, channel, target):
        chan = write_spec(tmp_path, "chan.json", channel)
        gate = write_spec(tmp_path, "gate.json", target)
        code, out, err = run(capsys, *argv, "--channel", chan, "--target", gate)
        assert code == EXIT_INPUT_ERROR and out == ""
        dims = (channel["dims"], target["dims"])
        assert err == f"input error: {' '.join(argv)} target dims {dims[1]} do not match channel dims {dims[0]}\n"

    @pytest.mark.parametrize("excess, code", [(1e-6, EXIT_NUMERICAL_ERROR), (1e-10, EXIT_OK)])
    def test_optimizer_alpha_above_sigma_1_is_numerical(self, tmp_path, capsys, monkeypatch, excess, code):
        # a product unitary is a single product Kraus operator, so alpha_SRU^2 <= sigma_1^2 up to ALPHA_ORDER_ATOL
        sigma_sq = float(operator_schmidt(z3_channel().kraus[0], 3, 3).sigmas[0] ** 2)
        alpha = float(np.sqrt(sigma_sq + excess))
        monkeypatch.setattr(cli, "alpha_sru_optimize", lambda *args, **kwargs: (alpha, None, None))
        path = write_spec(tmp_path, "z3.json", Z3_SPEC)
        got, out, err = run(capsys, "detect-sep", "--channel", path)
        assert got == code, err
        if code == EXIT_OK:
            assert json.loads(out)["results"]["alpha_sru_sq"] == alpha**2
        else:
            assert out == ""
            assert err == (
                f"validation error: detect-sep: alpha_SRU^2 = {alpha**2!r} exceeds alpha_S^2 = {sigma_sq!r}\n"
            )

    @pytest.mark.parametrize(
        "command, message",
        [
            ("simulate", "simulate --witness sru needs dims [d_A, d_B] with d_A, d_B >= 2, got [2]"),
            (
                "decompose-witness",
                "decompose-witness --witness sru needs dims [d_A, d_B] with d_A, d_B >= 2, got [2]",
            ),
        ],
        ids=["simulate", "decompose-witness"],
    )
    def test_sru_dims_refusal_names_the_command(self, tmp_path, capsys, command, message):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        code, out, err = run(capsys, command, "--channel", path, "--witness", "sru")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"input error: {message}\n"

    @pytest.mark.parametrize("argv", MEASURING, ids=" ".join)
    def test_non_qubit_shots_refused_before_the_work(self, tmp_path, capsys, monkeypatch, argv):
        refuse_measurement(monkeypatch)
        for dims in ([3], [3, 3], [2, 3]):
            path = write_spec(tmp_path, "spec.json", {"dims": dims, "kind": "named", "name": "identity"})
            code, out, err = run(capsys, *argv, "--channel", path)
            assert code == EXIT_INPUT_ERROR and out == ""
            assert err == f"input error: {measurement_refusal(argv, dims + dims)}\n"

    @pytest.mark.parametrize(
        "argv, dims, rule",
        [
            *(
                pytest.param(argv, dims, TWO_PARTY_RULE, id=f"{' '.join(argv)} {dims}")
                for argv, dims in TWO_PARTY_REFUSALS
            ),
            pytest.param(["detect-eb"], [1], EB_RULE, id="detect-eb [1]"),
        ],
    )
    def test_dims_refusal_names_the_command(self, tmp_path, capsys, monkeypatch, argv, dims, rule):
        for name in ("detect_npt", "alpha_sru_optimize", "operator_schmidt", "_target_gate"):
            monkeypatch.setattr(cli, name, refuse_work)
        path = write_spec(tmp_path, "id.json", {"dims": dims, "kind": "named", "name": "identity"})
        code, out, err = run(capsys, argv[0], "--channel", path, *argv[1:])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"input error: {' '.join(argv)}{rule.format(dims)}\n"

    def test_non_tp_shots_refused_before_the_work(self, tmp_path, capsys, monkeypatch):
        # detect-sep takes a non-TP map, but its Choi matrix (trace 0.81) is no state to sample
        spec = {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(0.9 * np.eye(4))]}
        chan = write_spec(tmp_path, "lossy.json", spec)
        target = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = ["detect-sep", "--channel", chan, "--target", target]
        res = run_json(capsys, *argv)["results"]
        # alpha^2 Tr C - |<vec I|vec CNOT>|^2 Tr C / 16 = 0.81 / 2 - 0.81 / 4
        assert res["verdict"] == "undetected" and abs(res["expectation"] - 0.2025) <= 1e-12

        # a sampled request builds its channel trace preserving, so Channel's one check refuses it
        monkeypatch.setattr(cli, "_witness", refuse_work)
        code, out, err = run(capsys, *argv, "--shots", "1000")
        assert code == EXIT_NUMERICAL_ERROR and out == ""
        assert err.startswith(NON_TP_REFUSAL)

    @pytest.mark.parametrize(
        "command, dims",
        [
            pytest.param(command, [2] if command == "detect-eb" else [2, 2], id=command)
            for command in ("detect-eb", "detect-sru", "detect-sep", "detect-npt", "simulate")
        ],
    )
    def test_every_sampling_command_refuses_a_non_tp_map(self, tmp_path, capsys, monkeypatch, command, dims):
        d = int(np.prod(dims))
        spec = {"dims": dims, "kind": "kraus", "kraus": [matrix_to_pairs(0.9 * np.eye(d))]}
        monkeypatch.setattr(cli, "_witness", refuse_work)
        code, out, err = run(capsys, command, "--channel", write_spec(tmp_path, "lossy.json", spec), "--shots", "1000")
        assert code == EXIT_NUMERICAL_ERROR and out == ""
        assert err.startswith(NON_TP_REFUSAL)

    @pytest.mark.parametrize("argv", [["detect-sru"], ["simulate", "--witness", "sru"]], ids=" ".join)
    def test_empty_target_path_is_an_unreadable_target(self, tmp_path, capsys, argv):
        chan = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, err = run(capsys, *argv, "--channel", chan, "--target", "")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == "input error: channel spec file not found: \n"

    @pytest.mark.parametrize(
        "argv", [*MEASURING, ["decompose-witness", "--witness", "eb"], ["simulate", "--witness", "eb"]], ids=" ".join
    )
    def test_measurement_refused_beyond_four_qubits(self, tmp_path, capsys, monkeypatch, argv):
        refuse_measurement(monkeypatch)
        specs = [{"dims": [2, 2, 2], "kind": "named", "name": "identity"}]
        if argv[0] == "decompose-witness":  # the one measuring command that takes a non-TP map
            specs.append({"dims": [1], "kind": "kraus", "kraus": [[[[1, 0]]]]})
        for spec in specs:
            code, out, err = run(capsys, *argv, "--channel", write_spec(tmp_path, "spec.json", spec))
            assert code == EXIT_INPUT_ERROR and out == ""
            assert err == f"input error: {measurement_refusal(argv, spec['dims'] * 2)}\n"

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["simulate", "--witness", "eb"], dep_spec()),
            (["simulate", "--witness", "ppt"], CNOT_SPEC),
            (["decompose-witness"], dep_spec()),
        ],
        ids=["simulate-eb", "simulate-ppt", "decompose-witness-default-eb"],
    )
    def test_target_refused_where_the_witness_has_no_gate(self, tmp_path, capsys, monkeypatch, argv, spec):
        for name in ("_witness", "_target_gate", "detect_npt"):
            monkeypatch.setattr(cli, name, refuse_work)
        chan = write_spec(tmp_path, "chan.json", spec)
        target = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, err = run(capsys, *argv, "--channel", chan, "--target", target)
        assert code == EXIT_INPUT_ERROR and out == ""
        kind = "ppt" if "ppt" in argv else "eb"
        message = f"{argv[0]} --witness {kind} takes no --target: the {kind} witness has no reference gate"
        assert err == f"input error: {message}\n"

    @pytest.mark.parametrize("witness", ["sru", "stabilizer", "ppt"])
    def test_simulate_refuses_zero_shots_before_the_work(self, tmp_path, capsys, monkeypatch, witness):
        monkeypatch.setattr(cli, "detect_npt", refuse_work)
        monkeypatch.setattr(cli, "_witness", refuse_work)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = ["simulate", "--channel", path, "--witness", witness, "--shots", "0"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "omit --shots for the default of 100000" in err

    @pytest.mark.parametrize("command", ["choi", "detect-eb"])
    def test_non_hermitian_sigma_is_numerical(self, tmp_path, capsys, command):
        # its Hermitian part is a density matrix, so without the check another channel would be built
        sigma = [[[0.5, 0], [0.4, 0]], [[0, 0], [0.5, 0]]]
        spec = {"dims": [2], "kind": "named", "name": "fully_depolarizing", "params": {"sigma": sigma}}
        code, out, err = run(capsys, command, "--channel", write_spec(tmp_path, "sigma.json", spec))
        assert code == EXIT_NUMERICAL_ERROR and out == ""
        assert err == "validation error: sigma is not Hermitian within 1e-10 (deviation 4.000e-01)\n"

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

    @pytest.mark.parametrize("dims", [[2, 3], [3, 2], [2, 4]])
    def test_detect_npt_unequal_dims(self, tmp_path, capsys, dims):
        dim = int(np.prod(dims))
        kraus = [np.sqrt(0.7) * haar_unitary(dim, 1), np.sqrt(0.3) * haar_unitary(dim, 2)]
        spec = {"dims": dims, "kind": "kraus", "kraus": [matrix_to_pairs(k) for k in kraus]}
        res = run_json(capsys, "detect-npt", "--channel", write_spec(tmp_path, "ch.json", spec))["results"]
        report = detect_npt(parse_channel_spec(spec))
        shown = [f.name for f in fields(report) if f.name not in ("vector", "composite")]
        assert res == {name: getattr(report, name) for name in shown}
        assert res["verdict"] == "npt_detected"

    @pytest.mark.parametrize("dims", [[2, 3], [3, 2], [2, 4]])
    def test_sru_detection_on_unequal_dims(self, tmp_path, capsys, dims):
        u = haar_unitary(int(np.prod(dims)), 3)
        spec = {"dims": dims, "kind": "named", "name": "unitary", "params": {"matrix": matrix_to_pairs(u)}}
        path = write_spec(tmp_path, "gate.json", spec)
        sd = operator_schmidt(u, *dims)
        alpha, _, _ = alpha_sru_optimize(u, dims)
        alpha_s_sq = float(sd.sigmas[0] ** 2)
        w = build_sru_witness(u, dims, alpha**2)
        value = evaluate_witness(w, parse_channel_spec(spec).choi)
        for command in ("detect-sru", "detect-sep"):
            res = run_json(capsys, command, "--channel", path)["results"]
            assert res["alpha_source"] == "optimizer"
            assert (res["alpha_sru_sq"], res["alpha_s_sq"]) == (w.alpha_sq, alpha_s_sq)
            thresholds = {"not_sru": 0.0, "not_separable": w.alpha_sq - alpha_s_sq}
            assert (res["expectation"], res["verdict"]) == (value, decide("sru", value, thresholds))
        # detect-sep, run last, also reports the gate's Schmidt coefficients
        assert (res["sigmas"], res["rank"]) == (sd.sigmas.tolist(), sd.rank)
        res = run_json(capsys, "schmidt", "--channel", path)["results"]
        assert (res["sigmas"], res["rank"]) == (sd.sigmas.tolist(), sd.rank)
        assert res["a_factors"] == [matrix_to_pairs(a) for a in sd.a_factors]
        assert res["b_factors"] == [matrix_to_pairs(b) for b in sd.b_factors]

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

    @pytest.mark.parametrize("witness", ["eb", "sru", "stabilizer"])
    def test_decompose_witness_matches_the_public_adapters(self, tmp_path, capsys, witness):
        from chandet.detect import eb_witness, stabilizer_witness
        from chandet.measure import group_settings, pauli_decompose

        # the report names the codes itself; its terms and settings are the adapters' own
        spec = CNOT_SPEC if witness != "eb" else dep_spec(0.1)
        path = write_spec(tmp_path, "spec.json", spec)
        res = run_json(capsys, "decompose-witness", "--channel", path, "--witness", witness)["results"]
        channel = parse_channel_spec(spec, require_tp=False)
        w = {
            "eb": lambda: eb_witness(channel.dims),
            "sru": lambda: build_sru_witness(channel.kraus[0], (2, 2), res["alpha_sru_sq"]),
            "stabilizer": stabilizer_witness,
        }[witness]()
        terms = pauli_decompose(w.operator)
        settings = group_settings(terms)
        assert res["terms"] == [{"string": t.string, "coefficient": t.coefficient} for t in terms]
        assert res["settings"] == [{"bases": s.bases, "covered_terms": list(s.covered_terms)} for s in settings]
        assert res["setting_count"] == len(settings)

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
        from chandet import detect

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
        from chandet import measure

        # every Pauli expansion, pauli_decompose's included, is one call of measure._expand
        calls = []
        real = measure._expand

        def counting(op, *args, **kwargs):
            calls.append(op.shape)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(measure, "_expand", counting)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = ["simulate", "--channel", path, "--witness", witness, "--shots", "200"]
        res = run_json(capsys, *argv)["results"]
        assert calls == [(16, 16)]
        assert res["setting_count"] > 0

    @pytest.mark.parametrize(
        "command", [["simulate", "--witness", "sru"], ["detect-npt"]], ids=["simulate-sru", "detect-npt"]
    )
    def test_shot_requests_build_no_dense_pauli_string(self, tmp_path, capsys, monkeypatch, command):
        # the Pauli expansion and the product bases come from index tables and
        # broadcasting; a dense kron per string or per setting must not come back
        from chandet import channels, detect, measure, pptdetect, qmath

        calls = []
        for name in ("kron", "pauli_string"):
            real = getattr(qmath, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for module in (qmath, channels, detect, measure, pptdetect, cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, *command, "--channel", path, "--shots", "1000")["results"]
        assert res["estimate"]["shots_per_setting"] == 1000
        assert calls == []

    @pytest.mark.parametrize("command", ["decompose-witness", "simulate"])
    def test_stabilizer_witness_for_noisy_cnot_target(self, tmp_path, capsys, command):
        kraus = [np.sqrt(0.9) * CNOT, np.sqrt(0.1) * np.kron(np.eye(2), [[0, 1], [1, 0]]) @ CNOT]
        spec = {"dims": [2, 2], "kind": "kraus", "kraus": [matrix_to_pairs(k) for k in kraus]}
        chan = write_spec(tmp_path, "noisy.json", spec)
        target = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        argv = [command, "--channel", chan, "--target", target, "--witness", "stabilizer"]
        if command == "simulate":
            argv += ["--shots", "200"]
        res = run_json(capsys, *argv)["results"]
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

    def test_two_qubit_eb_witness_is_measured(self, tmp_path, capsys):
        from chandet.detect import eb_witness
        from chandet.qmath import pauli_string

        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        res = run_json(capsys, "decompose-witness", "--channel", path, "--witness", "eb")["results"]
        rebuilt = sum(t["coefficient"] * pauli_string(t["string"]) for t in res["terms"])
        np.testing.assert_allclose(rebuilt, eb_witness((2, 2)).operator, atol=1e-15)
        argv = ["simulate", "--channel", path, "--witness", "eb", "--shots", "1000"]
        res = run_json(capsys, *argv)["results"]
        assert res["exact"] == 0.0  # |Tr CNOT|^2 / 16 = 1/4 = alpha^2: CNOT is not flagged

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 2 / 3, 0.9, 1.0])
    def test_detect_eb_qutrit_depolarizing(self, tmp_path, capsys, p):
        spec = {"dims": [3], "kind": "named", "name": "depolarizing", "params": {"p": p}}
        res = run_json(capsys, "detect-eb", "--channel", write_spec(tmp_path, "dep3.json", spec))["results"]
        # fidelity of the Choi state with |Phi> is 1 - p, so the sign changes at p = 2/3
        assert res["expectation"] == pytest.approx(1 / 3 - (1 - p), abs=1e-12)
        assert res["verdict"] == ("not_entanglement_breaking" if p < 2 / 3 else "undetected")
        assert res["bounds"]["w_max"] == 1 / 3

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


    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["detect-npt"], 0),
            (["detect-npt", "--shots", "100"], 1),
            (["simulate", "--witness", "ppt", "--shots", "100"], 1),
        ],
        ids=["detect-npt", "detect-npt-shots", "simulate-ppt"],
    )
    def test_dense_ppt_witness_only_where_it_is_measured(self, tmp_path, capsys, monkeypatch, argv, builds):
        from chandet import pptdetect

        built, build = [], pptdetect._ppt_witness

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(pptdetect, "_ppt_witness", counting)
        run_json(capsys, *argv, "--channel", write_spec(tmp_path, "cnot.json", CNOT_SPEC))
        assert len(built) == builds

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

    def test_ppt_refusal_names_the_command(self, tmp_path, capsys):
        path = write_spec(tmp_path, "id.json", IDENTITY22_SPEC)
        code, out, err = run(capsys, "simulate", "--channel", path, "--witness", "ppt")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == (
            "input error: simulate --witness ppt needs an NPT channel; "
            "this one has lambda_minus >= -1e-10, so no witness exists\n"
        )

    def test_ppt_refusal_is_stable_under_kraus_order(self, tmp_path, capsys):
        from support import random_sru_channel

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

        def per_entry(m):
            return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]

        # against a per-entry conversion, signed zeros, a subnormal and a huge entry
        # keep their exact floats and JSON text
        m = np.array([[complex(-0.0, -0.0), complex(5e-324, -0.0)], [complex(1.7e308, 2.5e-310), 1 / 3]])
        for matrix in (m, CNOT):
            assert matrix_to_pairs(matrix) == per_entry(matrix)
            assert json.dumps(matrix_to_pairs(matrix)) == json.dumps(per_entry(matrix))

    def test_text_mode_npt_fields(self, tmp_path, capsys):
        path = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        code, out, _ = run(capsys, "detect-npt", "--channel", path, "--format", "text")
        assert code == EXIT_OK
        for needle in ("lambda_minus:", "noise_p:", "threshold:", "verdict: npt_detected"):
            assert needle in out

    def test_non_finite_result_is_numerical_failure(self):
        from chandet.channels import ValidationError
        from chandet.cli import render_report

        payload = {
            "pipeline": "detect-eb",
            "inputs": {"channel": {}, "options": {}},
            "results": {"expectation": float("nan")},
        }
        with pytest.raises(ValidationError, match="non-finite"):
            render_report(payload)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_echo_is_numerical_failure_in_both_formats(self, tmp_path, capsys, fmt):
        # an unknown spec key is echoed, not parsed, so 1e400 reaches the report as inf
        path = tmp_path / "dep.json"
        path.write_text('{"dims": [2], "kind": "named", "name": "identity", "note": 1e400}')
        code, out, err = run(capsys, "detect-eb", "--channel", str(path), "--format", fmt)
        assert code == EXIT_NUMERICAL_ERROR and out == ""
        # one writer serves both formats, so the message names the value in both
        assert err == (
            "validation error: report holds a non-finite number: "
            "Out of range float values are not JSON compliant: inf\n"
        )

    def test_elapsed_not_in_json(self, tmp_path, capsys):
        path = write_spec(tmp_path, "dep.json", dep_spec())
        payload = run_json(capsys, "detect-eb", "--channel", path)
        assert "elapsed" not in json.dumps(payload)

    def test_expectation_matches_library_bit_for_bit(self, tmp_path, capsys):
        from chandet.channels import depolarizing_channel
        from chandet.detect import eb_witness, evaluate_witness

        path = write_spec(tmp_path, "dep.json", dep_spec(0.3))
        res = run_json(capsys, "detect-eb", "--channel", path)["results"]
        assert res["expectation"] == evaluate_witness(eb_witness(), depolarizing_channel(0.3).choi)


def named_by_digest(value):
    """The README's one-liner: the shape and sha256 of an [re, im] nest as a report names it."""
    pairs = np.asarray(value, dtype="<f8")
    return {"shape": list(pairs.shape), "sha256": hashlib.sha256(pairs.tobytes()).hexdigest()}


def kraus_spec(channel):
    return {"dims": list(channel.dims), "kind": "kraus", "kraus": [matrix_to_pairs(a) for a in channel.kraus]}


def haar_pairs(d, *seeds):
    return [matrix_to_pairs(haar_unitary(d, s)) for s in seeds]


# A valid spec for each param that NAMED_SPECS parses as a matrix or a matrix list.
MATRIX_PARAM_SPECS = {
    ("fully_depolarizing", "sigma"): {
        "dims": [2], "kind": "named", "name": "fully_depolarizing",
        "params": {"sigma": matrix_to_pairs(random_density_matrix(2, 5))},
    },
    ("unitary", "matrix"): unitary_spec(haar_unitary(4, 6)),
    ("random_unitary", "unitaries"): {
        "dims": [3], "kind": "named", "name": "random_unitary",
        "params": {"probs": [0.25, 0.75], "unitaries": haar_pairs(3, 7, 8)},
    },
    **{
        ("sru", key): {
            "dims": [2, 3], "kind": "named", "name": "sru",
            "params": {"probs": [0.5, 0.5], "a_unitaries": haar_pairs(2, 9, 10), "b_unitaries": haar_pairs(3, 11, 12)},
        }
        for key in ("a_unitaries", "b_unitaries")
    },
}


class TestEcho:
    """A report echoes its specs' scalar fields and names each matrix by its shape and sha256."""

    def test_every_matrix_param_has_a_spec(self):
        params = {
            (name, key)
            for name, schema in cli.NAMED_SPECS.items()
            for key, parser in schema.takes.items()
            if parser in (cli._complex_matrix, cli._matrix_list)
        }
        assert params == set(MATRIX_PARAM_SPECS)

    @pytest.mark.parametrize("name, key", list(MATRIX_PARAM_SPECS), ids=[f"{n}-{k}" for n, k in MATRIX_PARAM_SPECS])
    def test_matrix_param(self, tmp_path, capsys, name, key):
        spec = MATRIX_PARAM_SPECS[name, key]
        echo = run_json(capsys, "choi", "--channel", write_spec(tmp_path, "spec.json", spec))["inputs"]["channel"]
        value = spec["params"][key]
        parsed = np.array(cli.NAMED_SPECS[name].takes[key](value, key))
        assert echo["params"][key] == named_by_digest(value)
        assert echo["params"][key]["shape"] == [*parsed.shape, 2]
        # every other field is echoed as it is, in the spec's order
        params = {k: named_by_digest(v) if (name, k) in MATRIX_PARAM_SPECS else v for k, v in spec["params"].items()}
        assert echo == {**spec, "params": params}
        assert list(echo) == list(spec) and list(echo["params"]) == list(spec["params"])

    def test_kraus_spec(self, tmp_path, capsys):
        spec = {**kraus_spec(random_channel((2,), 13, kraus_count=3)), "note": [1.5, "kept"]}
        echo = run_json(capsys, "detect-eb", "--channel", write_spec(tmp_path, "k.json", spec))["inputs"]["channel"]
        assert echo == {**spec, "kraus": named_by_digest(spec["kraus"])}
        assert echo["kraus"]["shape"] == [3, 2, 2, 2]

    @pytest.mark.parametrize("target", CNOT_SPELLINGS, ids=["named", "unitary", "kraus"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_target_spec(self, tmp_path, capsys, target, fmt):
        chan = write_spec(tmp_path, "id.json", IDENTITY22_SPEC)
        argv = ["detect-sru", "--channel", chan, "--target", write_spec(tmp_path, "t.json", target), "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        expected = {
            **target,
            **({"kraus": named_by_digest(target["kraus"])} if "kraus" in target else {}),
            **({"params": {"matrix": named_by_digest(target["params"]["matrix"])}} if "params" in target else {}),
        }
        if fmt == "json":
            assert json.loads(out)["inputs"]["options"]["target"] == expected
        else:
            assert f"target: {json.dumps(expected)}\n" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_echo_exactly_the_commands_own(self, tmp_path, capsys, command):
        chan = write_spec(tmp_path, "cnot.json", CNOT_SPEC)
        target = unitary_spec(CNOT)
        path = write_spec(tmp_path, "t.json", target)
        given = {"seed": "3", "shots": "7", "starts": "9", "witness": "sru", "target": path}
        # a given --target is echoed as its spec, each matrix named by its shape and sha256
        echoed = {
            "seed": 3,
            "shots": 7,
            "starts": 9,
            "witness": "sru",
            "target": {**target, "params": {"matrix": named_by_digest(target["params"]["matrix"])}},
        }
        names = PIPELINE_OPTIONS[command]
        defaults = {name: OPTION_DEFAULTS[name] for name in names}
        if command == "simulate":
            defaults["shots"] = 100_000  # simulate always samples, and echoes the count it took
        for argv, want in (
            ([], defaults),
            ([arg for name in names for arg in (f"--{name}", given[name])], {name: echoed[name] for name in names}),
        ):
            options = run_json(capsys, command, "--channel", chan, *argv)["inputs"]["options"]
            # choi and schmidt echo {}
            assert options == want and list(options) == list(names)
            code, out, err = run(capsys, command, "--channel", chan, *argv, "--format", "text")
            assert code == EXIT_OK, err
            lines = out.split("\n")
            # the text report lists the options that are not null, in the same order
            assert lines[2 : lines.index("results:")] == [
                f"{name}: {val if isinstance(val, str) else json.dumps(val)}"
                for name, val in want.items()
                if val is not None
            ]

    @pytest.mark.parametrize(
        "argv, spec, shots",
        [
            pytest.param(["simulate"], CNOT_SPEC, 100_000, id="simulate"),
            *(
                pytest.param(
                    [command, "--shots", "300"], dep_spec() if command == "detect-eb" else CNOT_SPEC, 300,
                    id=f"{command} --shots",
                )
                for command in ("simulate", "detect-eb", "detect-sru", "detect-sep", "detect-npt")
            ),
        ],
    )
    def test_shots_echo_the_count_the_estimate_took(self, tmp_path, capsys, argv, spec, shots):
        chan = write_spec(tmp_path, "chan.json", spec)
        report = run_json(capsys, *argv, "--channel", chan)
        assert report["inputs"]["options"]["shots"] == report["results"]["estimate"]["shots_per_setting"] == shots
        code, out, err = run(capsys, *argv, "--channel", chan, "--format", "text")
        assert code == EXIT_OK, err
        lines = out.split("\n")
        assert f"shots: {shots}" in lines[: lines.index("results:")]
        assert f"    shots_per_setting: {shots}" in lines[lines.index("  estimate:") :]

    def test_text_channel_line_names_the_kraus_array(self, tmp_path, capsys):
        spec = kraus_spec(random_channel((2, 2), 14, kraus_count=2))
        path = write_spec(tmp_path, "k.json", spec)
        code, out, err = run(capsys, "detect-eb", "--channel", path, "--format", "text")
        assert code == EXIT_OK, err
        line = next(line for line in out.splitlines() if line.startswith("channel: "))
        assert json.loads(line[len("channel: ") :]) == {**spec, "kraus": named_by_digest(spec["kraus"])}
        floats = np.asarray(spec["kraus"]).ravel()
        assert not [x for x in floats if repr(float(x)) in out and x not in (0.0, 1.0)]

    def test_rank_81_qutrit_report_stays_small(self, tmp_path, capsys):
        # a full echo of the 13 122 floats of the spec would take about 340 kB
        spec = kraus_spec(random_channel((3, 3), 15, kraus_count=81))
        code, out, err = run(capsys, "detect-npt", "--channel", write_spec(tmp_path, "k.json", spec))
        assert code == EXIT_OK, err
        assert len(out.encode()) < 4096


class TestEntryPoint:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_kept_parser_reads_as_a_fresh_one(self, capsys, command):
        # main builds the parser on its first call and keeps it
        cli._parser.cache_clear()
        for tail in (["--help"], [], ["--channel", "x", "--format", "xml"], ["--channel", "x", "--bogus"]):
            outcomes = []
            for parse in (build_parser().parse_args, main, main):
                with pytest.raises(SystemExit) as exc:
                    parse([command, *tail])
                outcomes.append((exc.value.code, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1] == outcomes[2]
        assert cli._parser.cache_info().currsize == 1

    def test_readme_synopsis_is_the_parsers(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        synopsis = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
        # a line that does not start a command continues the one before
        documented = {
            line.split()[1]: re.findall(r"(--[a-z]+)(?: ([^\]\s]+))?", line)
            for line in re.sub(r"\n\s+", " ", synopsis).splitlines()
        }
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        offered = {
            name: [(a.option_strings[0], tuple(a.choices or ())) for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()
        }
        assert list(documented) == list(offered) == list(COMMANDS)
        for name, flags in documented.items():
            # each flag in order, with the choices of --format and --witness
            assert [(flag, tuple(arg.split("|")) if "|" in arg else ()) for flag, arg in flags] == offered[name]

    def test_unknown_commands_share_one_parser(self, capsys):
        cli._parser.cache_clear()
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                main([command, "--help"])
        for i in range(200):
            with pytest.raises(SystemExit) as exc:
                main([f"no-such-command-{i}", "--channel", "x"])
            assert exc.value.code == EXIT_INPUT_ERROR
        capsys.readouterr()
        assert cli._parser.cache_info().currsize == 1

    def test_import_builds_nothing(self):
        import subprocess
        import sys

        probe = (
            "import sys, chandet.cli as c; d = sys.modules['chandet.detect']; "
            "print(c._parser.cache_info().currsize, d.stabilizer_witness.cache_info().currsize, "
            "c._encoder.cache_info().currsize)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0\n", "")

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
