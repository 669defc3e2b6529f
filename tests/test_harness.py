import json
import math

import numpy as np
import pytest

from rough_hausdorff.functions import AngularProfile, LipschitzSymbol, kernel_presets, lipschitz_presets
from rough_hausdorff.harness import (
    ERROR,
    THEOREM_TABLE,
    ConfigError,
    TheoremCase,
    check_divergence_control,
    check_ineq_3_8,
    check_lemma_2_1,
    check_lower,
    check_upper,
    default_config,
    default_corpus,
    load_config,
    run_suite,
    tracked_slack,
    validate_case,
    write_report,
)
from rough_hausdorff.weights import Weight

W0 = Weight.power(0.0, 1)
W03 = Weight.power(0.3, 1)
OM1 = AngularProfile.constant(1.0, 1)
HARDY1 = kernel_presets("hardy", 1)


def small_morrey_case(corpus_size=4, lam=-0.1, kernel=HARDY1, expect="pass"):
    case = TheoremCase(
        id="case",
        theorem="Cor3_1",
        params={"p": 2.0, "lambda": lam},
        kernel=kernel,
        omega=OM1,
        w1=W03,
        w2=W03,
        corpus=default_corpus(1, OM1, 2.0, corpus_size),
        window=(-20, 20),
        expect=expect,
    )
    return case


def test_lemma_rows_all_pass():
    rows = check_lemma_2_1()
    assert len(rows) == 15
    assert all(r.verdict == "PASS" for r in rows)


def test_ineq_3_8_rows():
    for beta in (0.25, 0.5, 1.0):
        row = check_ineq_3_8(lipschitz_presets("power", beta, 1), 2000)
        assert row.verdict == "PASS"
        assert float(row.value) <= 1.0 + 1e-12
    good = lipschitz_presets("power", 0.5, 1)
    corrupted = LipschitzSymbol(good.eval, 0.5, 0.5, 1, name="corrupted", validate=False)
    row = check_ineq_3_8(corrupted, 2000)
    assert row.verdict == "FAIL"
    assert "witness" in row.detail


def test_tracked_slack_values():
    # power weight, n=1, gamma=0: w(S^0) = 2, c = 1
    assert tracked_slack("Cor3_1", {"p": 2.0}, W0) == pytest.approx(math.sqrt(2))
    assert tracked_slack("Cor3_2", {"q": 2.0, "alpha": 0.25}, W0) == pytest.approx(
        math.sqrt(2) * (1 + 2 ** 0.25)
    )
    assert tracked_slack("T3_4", {"p": 2.0, "beta": 0.25}, W0, W0) == pytest.approx(
        (1.0 / 2.0) ** 0.25 * 2.0 ** 0.5
    )
    with pytest.raises(ConfigError):
        w_nobound = Weight(0.0, lambda p: 2.0 + p[:, 0] ** 2, 2)
        tracked_slack("Cor3_1", {"p": 2.0}, w_nobound)


def test_validate_case_gates():
    case = small_morrey_case(lam=-0.6)
    assert "1 + lambda p" in validate_case(case)
    assert validate_case(small_morrey_case()) is None


def test_upper_and_lower_morrey_small():
    case = small_morrey_case()
    rows = check_upper(case)
    assert rows[0].quantity == "C1"
    up = [r for r in rows if r.quantity == "upper_max_ratio"][0]
    assert up.verdict == "PASS"
    assert 0 < up.value <= up.bound * (1 + 1e-3)
    rows = check_lower(case)
    by_q = {r.quantity: r for r in rows}
    assert by_q["pushforward_amplitude"].verdict == "PASS"
    assert by_q["extremal_ratio"].verdict == "PASS"
    # power weight: the extremal attains the tracked two-sided constant
    sharp = by_q["sharp_constant"]
    assert sharp.verdict == "PASS"
    assert sharp.value == pytest.approx(sharp.bound, rel=1e-6)


def test_lower_skipped_for_mixed_sign_kernel():
    mixed = kernel_presets("power", -2.0, 1.0, math.inf)
    object.__setattr__(mixed, "sign", "mixed")
    rows = check_lower(small_morrey_case(kernel=mixed))
    assert rows[0].verdict == "SKIPPED"


def test_omega_scaling_invariance():
    # scaling the symbol rescales ratio and bound identically
    case1 = small_morrey_case(corpus_size=2)
    om2 = AngularProfile.constant(2.0, 1)
    case2 = TheoremCase(
        id="case2", theorem="Cor3_1", params={"p": 2.0, "lambda": -0.1},
        kernel=HARDY1, omega=om2, w1=W03, w2=W03,
        corpus=default_corpus(1, om2, 2.0, 2), window=(-20, 20),
    )
    r1 = {r.quantity: r for r in check_lower(case1)}["extremal_ratio"]
    r2 = {r.quantity: r for r in check_lower(case2)}["extremal_ratio"]
    assert r2.value / r1.value == pytest.approx(r2.bound / r1.bound, rel=1e-10)
    assert r2.value / r1.value == pytest.approx(2.0, rel=1e-8)


def test_divergence_control_growth():
    case = small_morrey_case(lam=0.0, kernel=kernel_presets("adjoint_hardy"), expect="divergent")
    rows = check_divergence_control(case, windows=(4, 8, 12))
    ratios = [r.value for r in rows if r.quantity.startswith("ratio_window_")]
    assert ratios[0] < ratios[1] < ratios[2]
    assert rows[-1].verdict == "DIVERGENT-AS-PREDICTED"


def test_degenerate_corpus_members_skipped():
    import numpy as np
    from rough_hausdorff.functions import separable

    case = small_morrey_case(corpus_size=2)
    zero = separable(1, lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                     support=(0.5, 1.0), name="zero")
    case.corpus.append(zero)
    rows = {r.quantity: r for r in check_upper(case)}
    assert "1 degenerate corpus members skipped" in rows["upper_max_ratio"].detail
    assert rows["upper_max_ratio"].verdict == "PASS"


def test_upper_check_without_a_measurable_source_is_skipped():
    # every corpus member lies in 1/4 <= |x| <= 4, beyond every ball of the window's radii
    case = small_morrey_case(corpus_size=4)
    case.window = (-40, -30)
    rows = {r.quantity: r for r in check_upper(case)}
    assert rows["upper_max_ratio"].verdict == "SKIPPED"
    assert rows["upper_max_ratio"].detail.startswith("no corpus member has a positive finite source norm")


@pytest.mark.parametrize("tolerances,window", [({}, [3, -3]), ({"dyadic_window": [4, -4]}, None),
                                               ({}, [0.5, 3]), ({}, [1, 2, 3])])
def test_window_must_be_two_ordered_integers(tolerances, window):
    case = {"id": "a", "theorem": "Lemma2_1"}
    if window is not None:
        case["window"] = window
    with pytest.raises(ConfigError, match="k_min <= k_max"):
        run_suite({"tolerances": tolerances, "cases": [case]})


def test_exit_code_on_fail_row():
    from rough_hausdorff.harness import ReportRow, VerificationReport

    rep = VerificationReport([ReportRow("c", "q", 2.0, 1.0, -1.0, "FAIL")], {})
    assert rep.exit_code() == 1
    rep2 = VerificationReport([ReportRow("c", "q", 1.0, 1.0, 0.0, "DIVERGENT-AS-PREDICTED")], {})
    assert rep2.exit_code() == 0


def test_default_corpus_size_and_determinism():
    c1 = default_corpus(1, OM1, 2.0, 20)
    c2 = default_corpus(1, OM1, 2.0, 20)
    assert len(c1) == 20
    assert [f.name for f in c1] == [f.name for f in c2]
    x = np.array([[1.3]])
    assert all(a(x)[0] == b(x)[0] for a, b in zip(c1, c2))


def _tiny_config():
    return {
        "tolerances": {"ratio_rel": 1e-3},
        "weights": {"w0": {"gamma": 0.0, "dim": 1, "angular": "const"}},
        "omegas": {"one": {"expr": "1", "dim": 1}},
        "kernels": {"hardy": {"preset": "hardy", "n": 1}},
        "cases": [
            {"id": "lemma", "theorem": "Lemma2_1"},
            {"id": "skip_me", "theorem": "Cor3_1", "weight": "w0", "omega": "one",
             "kernel": "hardy", "params": {"p": 2.0, "lambda": -0.6}},
            {"id": "morrey", "theorem": "Cor3_1", "weight": "w0", "omega": "one",
             "kernel": "hardy", "params": {"p": 2.0, "lambda": -0.1},
             "corpus": "default", "corpus_size": 2, "window": [-16, 16]},
        ],
    }


def test_run_suite_tiny_config(tmp_path):
    report = run_suite(_tiny_config())
    verdicts = {r.verdict for r in report.rows}
    assert "FAIL" not in verdicts
    assert any(r.verdict == "SKIPPED" for r in report.rows)
    assert report.exit_code() == 0
    paths = write_report(report, str(tmp_path))
    body = json.load(open(paths["json"]))
    assert set(body) == {"metadata", "rows"}
    csv_text = open(paths["csv"]).read()
    assert csv_text.splitlines()[0] == "case_id,quantity,value,bound,margin,verdict"


def test_run_suite_determinism():
    a = run_suite(_tiny_config()).to_canonical_json()
    b = run_suite(_tiny_config()).to_canonical_json()
    assert a == b


def test_empty_case_list():
    report = run_suite({"cases": []})
    assert report.rows == []
    assert report.exit_code() == 0


def test_config_error_reporting():
    with pytest.raises(ConfigError):
        load_config_text = '{"cases": [}'
        from rough_hausdorff.harness import load_config as lc
        import io

        lc(io.StringIO(load_config_text))
    with pytest.raises(ConfigError):
        run_suite({"cases": [{"id": "x", "theorem": "T9_9"}]})
    with pytest.raises(ConfigError):
        run_suite({"cases": [{"id": "a", "theorem": "Lemma2_1"}, {"id": "a", "theorem": "Lemma2_1"}]})


def test_numerical_error_stays_inside_its_case():
    # the bundled cor3_1_n1 case on the window [0, 1]: its central Morrey
    # source norm is still climbing at the right edge (NormDivergentError)
    cfg = default_config()
    cases = {c["id"]: c for c in cfg["cases"]}
    cfg["cases"] = [dict(cases["cor3_1_n1"], window=[0, 1]), cases["lemma_2_1"]]
    report = run_suite(cfg)
    errors = [r for r in report.rows if r.verdict == ERROR]
    assert [(r.case_id, r.quantity) for r in errors] == [("cor3_1_n1", "error")]
    assert errors[0].detail.startswith("NormDivergentError: ")
    later = report.rows[1:]
    assert len(later) == 15 and all(r.verdict == "PASS" for r in later)
    assert report.failed and report.exit_code() == 1


def test_morrey_herz_commutator_below_p_1_needs_positive_lambda():
    # at lambda = 0 the T3_6 slack's p-sum factor (1 - 2^0)^(-1/p) has no value
    cfg = default_config()
    case = next(c for c in cfg["cases"] if c["id"] == "t3_6_n1")
    params = {"p": 0.5, "q": 2, "lambda": 0, "alpha2": 0.15, "alpha1": 0.4, "beta": 0.25}
    cfg["cases"] = [dict(case, params=params)]
    rows = run_suite(cfg).rows
    assert [(r.quantity, r.verdict, r.detail) for r in rows] == [
        ("hypotheses", "SKIPPED", "requires lambda > 0 when p < 1")]


def test_omega_exponent_1_skips_its_case_and_the_campaign_goes_on():
    # p = 1 (Cor3_1, T3_4) or q = 1 (Cor3_2) satisfies the hypotheses, but Omega
    # is then measured in L^inf (r' = inf), which the checks do not cover
    cfg = default_config()
    cases = {c["id"]: c for c in cfg["cases"]}
    edits = {"cor3_1_n1": {"p": 1.0}, "t3_4_n1": {"p": 1.0}, "cor3_2_n1": {"q": 1.0}}
    cfg["cases"] = [dict(cases[cid], params={**cases[cid]["params"], **edit}) for cid, edit in edits.items()]
    cfg["cases"].append(cases["lemma_2_1"])
    report = run_suite(cfg)
    skipped = [(r.case_id, r.quantity, r.verdict) for r in report.rows[:3]]
    assert skipped == [(cid, "scope", "SKIPPED") for cid in edits]
    assert all("= inf" in r.detail for r in report.rows[:3])
    later = report.rows[3:]
    assert later and all(r.case_id == "lemma_2_1" and r.verdict == "PASS" for r in later)
    assert report.exit_code() == 0


def test_default_config_loads():
    cfg = default_config()
    assert len(cfg["cases"]) >= 10


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["gamma_-n", "gamma_-n-0.5"])
def test_weight_outside_the_class_skips_every_theorem(offset):
    # gamma <= -n: the commutator indices and the constants divide by n + gamma
    cfg = default_config()
    cases = {c["id"]: c for c in cfg["cases"]}
    template = {"T3_1": "cor3_1_n1", "Cor3_1": "cor3_1_n1", "T3_2": "cor3_2_n1", "Cor3_2": "cor3_2_n1",
                "T3_3": "cor3_3_n1", "Cor3_3": "cor3_3_n1", "T3_4": "t3_4_n1", "T3_5": "t3_5_n1",
                "T3_6": "t3_6_n1"}
    assert set(template) == set(THEOREM_TABLE)
    cfg["weights"]["edge"] = {"gamma": -1.0 - offset, "dim": 1, "angular": "const"}
    cfg["cases"] = [dict(cases[cid], id=theorem, theorem=theorem, weight="edge")
                    for theorem, cid in template.items()]
    report = run_suite(cfg)
    assert [(r.case_id, r.quantity, r.verdict, r.detail) for r in report.rows] == [
        (theorem, "hypotheses", "SKIPPED", f"gamma={-1.0 - offset} <= -n") for theorem in template]
    assert report.exit_code() == 0
