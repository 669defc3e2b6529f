import argparse
import json
import math

import numpy as np
import pytest

from rough_hausdorff.cli import _cli_kernel, _cli_omega, _cli_weight, main
from rough_hausdorff.functions import KERNEL_PARAMETERS
from rough_hausdorff.harness import _build_kernel, _build_omega, _build_weight
from rough_hausdorff.quadrature import sphere_nodes


def test_constant_subcommand(capsys):
    rc = main(["constant", "--id", "c3", "--phi", "hardy:1", "--n", "1",
               "--gamma", "0", "--q", "1", "--lambda", "0.5", "--alpha", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["id"] == "C3"
    assert payload["value"] == pytest.approx(2.0, rel=1e-8)
    assert payload["params"]["lambda"] == 0.5


def test_constant_divergent(capsys):
    rc = main(["constant", "--id", "c1", "--phi", "adjoint_hardy", "--n", "1",
               "--gamma", "0", "--lambda", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "divergent"


def test_apply_subcommand(capsys):
    rc = main(["apply", "--phi", "hardy:1", "--omega", "1", "--n", "1",
               "--radial", "indicator(0,1)", "--support-min", "0", "--support-max", "1",
               "--exponent-at-zero", "0", "--x", "2.0,0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["value"] == pytest.approx(1.0, rel=1e-7)
    assert payload[1]["value"] == pytest.approx(2.0, rel=1e-7)


def test_apply_commutator(capsys):
    rc = main(["apply", "--phi", "hardy:1", "--omega", "1", "--n", "1",
               "--radial", "indicator(0,1)", "--support-min", "0", "--support-max", "1",
               "--exponent-at-zero", "0", "--commutator-beta", "1.0", "--x", "2.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["value"] == pytest.approx(1.5, rel=1e-7)


def test_norm_subcommand(capsys):
    rc = main(["norm", "--space", "CentralMorrey", "--p", "2", "--lambda", "-0.1",
               "--gamma", "0", "--n", "1", "--radial", "pow(r,-0.1)",
               "--exponent-at-zero", "-0.1", "--exponent-at-infinity", "-0.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(2.0 ** 0.1 * 0.8 ** -0.5, rel=1e-8)
    assert {"value", "k_min", "k_max", "tail_bound", "attained_at"} == set(payload)


def test_central_morrey_norm_needs_no_exponent_at_zero(capsys):
    # the Morrey grid's shells all lie inside the window and the mass below it is the
    # continuation of the shell terms, so no integral reaches 0: 1 on (0, 1] has the
    # supremand (2R)^0.1 up to R = 1
    rc = main(["norm", "--space", "CentralMorrey", "--p", "2", "--lambda", "-0.1", "--radial", "1",
               "--support-max", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(2.0 ** 0.1, rel=1e-12, abs=0.0)
    assert payload["attained_at"] == 0


def test_verify_and_report_roundtrip(tmp_path, capsys):
    cfg = {
        "weights": {"w0": {"gamma": 0.0, "dim": 1, "angular": "const"}},
        "omegas": {"one": {"expr": "1", "dim": 1}},
        "kernels": {"hardy": {"preset": "hardy", "n": 1}},
        "cases": [{"id": "lemma", "theorem": "Lemma2_1"}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["verify", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    rc = main(["report", "--in", str(tmp_path / "out" / "report.json"),
               "--csv", str(tmp_path / "re.csv")])
    assert rc == 0
    assert (tmp_path / "re.csv").read_bytes() == (tmp_path / "out" / "report.csv").read_bytes()


def test_verify_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cases": [')
    rc = main(["verify", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2


BAD_CONFIGS = {
    "kernel_missing_key": {"kernels": {"k": {"preset": "power"}}},
    "weight_missing_key": {"weights": {"w": {"dim": 1}}},
    "power_bad_range": {"kernels": {"k": {"preset": "power", "a": -2.0, "lo": 2, "hi": 1}}},
    "omega_bad_expression": {"omegas": {"o": {"expr": "2 + bogus(", "dim": 2}}},
    "case_window_reversed": {"cases": [{"id": "a", "theorem": "Lemma2_1", "window": [3, -3]}]},
    "dyadic_window_reversed": {"tolerances": {"dyadic_window": [4, -4]}, "cases": []},
}


CONSTANT = ["constant", "--id", "c1", "--n", "1", "--gamma", "0"]
NORM_SHELL = ["norm", "--radial", "1", "--support-min", "1", "--support-max", "2"]
BAD_ARGV = {
    "constant_power_no_args": CONSTANT + ["--phi", "power", "--lambda", "0.1"],
    "constant_unknown_preset": CONSTANT + ["--phi", "bogus", "--lambda", "0.1"],
    "constant_c3_without_q": ["constant", "--id", "c3", "--phi", "hardy:1", "--n", "1", "--gamma", "0",
                              "--lambda", "0.5", "--alpha", "0"],
    "norm_herz_without_p": ["norm", "--space", "Herz", "--q", "2", "--alpha", "0", "--n", "1",
                            "--radial", "pow(r,-0.1)", "--exponent-at-zero", "-0.1",
                            "--exponent-at-infinity", "-0.1"],
    "norm_two_weight_morrey_p_below_1": ["norm", "--space", "TwoWeightMorrey", "--p", "0.5", "--lambda", "0.5",
                                         "--radial", "1", "--support-min", "0.5", "--support-max", "1"],
    "verify_missing_config": ["verify", "--config", "{tmp}/missing.json", "--out-dir", "{tmp}/out"],
    # values the numerics reject while evaluating
    "apply_without_exponent_at_zero": ["apply", "--radial", "1", "--support-max", "1", "--phi", "hardy:1",
                                       "--x", "1"],
    "apply_at_the_origin": ["apply", "--radial", "1", "--support-max", "1", "--phi", "hardy:1",
                            "--exponent-at-zero", "0", "--x", "0"],
    # out of range for the kind (spaces._KINDS)
    "norm_herz_q_below_1": NORM_SHELL + ["--space", "Herz", "--p", "1", "--q", "0.5", "--alpha", "0"],
    "norm_morrey_herz_q_below_1": NORM_SHELL + ["--space", "MorreyHerz", "--p", "1", "--q", "0.5",
                                                "--alpha", "0", "--lambda", "0.5"],
    "norm_two_weight_herz_q_below_1": NORM_SHELL + ["--space", "TwoWeightHerz", "--p", "1", "--q", "0.5",
                                                    "--alpha", "0"],
    "norm_lq_q_below_1": NORM_SHELL + ["--space", "Lq", "--q", "0.5"],
    "norm_herz_reversed_window": NORM_SHELL + ["--space", "Herz", "--p", "1", "--q", "2", "--alpha", "0",
                                               "--window", "4", "-4"],
    "norm_central_morrey_1_plus_lambda_p_zero": NORM_SHELL + ["--space", "CentralMorrey", "--p", "2",
                                                              "--lambda", "-0.5"],
}


@pytest.mark.parametrize("config,argv", [(cfg, None) for cfg in BAD_CONFIGS.values()]
                         + [(None, argv) for argv in BAD_ARGV.values()],
                         ids=list(BAD_CONFIGS) + list(BAD_ARGV))
def test_bad_spec_exits_2(config, argv, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = ["verify", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    else:
        argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


KERNEL_FORMS = [
    ("hardy:2", {"preset": "hardy", "n": 2}),
    ("adjoint_hardy", {"preset": "adjoint_hardy"}),
    ("power:-2.5:1:inf", {"preset": "power", "a": -2.5, "lo": 1.0, "hi": math.inf}),
    ("power:-0.5", {"preset": "power", "a": -0.5}),
    ("gaussian", {"preset": "gaussian"}),
    ("double_exp", {"preset": "double_exp"}),
]


def test_kernel_forms_cover_every_preset():
    assert {spec["preset"] for _, spec in KERNEL_FORMS} == set(KERNEL_PARAMETERS)


@pytest.mark.parametrize("text,spec", KERNEL_FORMS, ids=[text for text, _ in KERNEL_FORMS])
def test_kernel_string_and_config_forms_agree(text, spec):
    a, b = _cli_kernel(text), _build_kernel(spec)
    assert (a.support, a.exponent_at_zero, a.exponent_at_infinity, a.sign) == (
        b.support, b.exponent_at_zero, b.exponent_at_infinity, b.sign)
    ts = np.geomspace(1e-3, 1e3, 61)
    np.testing.assert_array_equal(a(ts), b(ts))


def test_weight_and_omega_flags_and_config_forms_agree():
    pts, _ = sphere_nodes(2, 2)
    args = argparse.Namespace(n=2, gamma=0.3, weight_angular="2 + cos(2*theta)/2", weight_lower_bound=1.5,
                              omega="2 + cos(theta)")
    a = _cli_weight(args)
    b = _build_weight({"gamma": 0.3, "dim": 2, "angular": "2 + cos(2*theta)/2", "angular_lower_bound": 1.5})
    assert (a.gamma, a.dim, a.angular_lower_bound, a.sphere_mass) == (b.gamma, b.dim, b.angular_lower_bound,
                                                                      b.sphere_mass)
    np.testing.assert_array_equal(a.angular(pts), b.angular(pts))
    a, b = _cli_omega(args), _build_omega({"expr": "2 + cos(theta)", "dim": 2})
    assert (a.dim, a.nonvanishing) == (b.dim, b.nonvanishing)
    np.testing.assert_array_equal(a(pts), b(pts))
