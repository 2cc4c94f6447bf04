"""Properties of the survey set (``survey.py``) that every change must keep."""

import json

import pytest

import survey


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("survey")


@pytest.fixture(scope="module")
def results(out_root):
    return survey.run_survey(str(out_root))


def test_survey_pbh_failures_are_the_only_synthesis_failures(results):
    codes = {name: code for name, (code, *_docs) in results.items()}
    assert sorted(name for name, code in codes.items() if code == 5) == sorted(survey.PBH_FAILURES)
    assert set(codes.values()) <= {0, 4, 5}


def test_survey_certified_beta_is_below_the_simulated_decay_rate(results):
    # a certificate's beta is a decay rate of the whole loop, so it stays
    # below -abscissa of the loop at the controller's design N
    certified = {name: (cert, summary) for name, (code, cert, summary, *_docs)
                 in results.items() if code == 0}
    assert certified
    for name, (cert, summary) in certified.items():
        assert cert["verdict"] == "Certified" and summary["N"] == cert["N"], name
        assert cert["beta"] < -summary["spectral_abscissa"], name


def test_survey_analyze_fails_exactly_the_pbh_failures(results):
    # analyze writes its verdict on every plant, the boundary plant whose
    # lift report fails included, and that verdict is PBH's alone
    analyses = {name: analysis for name, (*_docs, analysis) in results.items()}
    assert None not in analyses.values()
    failing = [name for name, doc in analyses.items() if not doc["verdict"]["pass"]]
    assert sorted(failing) == sorted(survey.PBH_FAILURES)
    assert analyses["heat_boundary_b5_negative"]["lift"]["constraints"]["all_pass"] is False


def test_survey_plants_that_certify_keep_certifying(results):
    # a ratchet on coverage: more plants may certify, none of these may stop
    assert [name for name in survey.CERTIFIED if results[name][0] != 0] == []
    counts = survey.coverage(results)
    assert sum(counts.values()) == len(survey.PLANTS), counts
    assert counts["Certified"] >= len(survey.CERTIFIED), counts


def test_survey_certify_reproduces_the_certificate_of_synthesize(results, out_root):
    # certify re-derives, from the controller document alone, the
    # certificate synthesize wrote beside it, Certified or Failed
    rechecked = {name: (code, recheck) for name, (code, _cert, _summary, recheck, _analysis)
                 in results.items() if recheck is not None}
    assert sorted(rechecked) == sorted(name for name, (code, *_docs) in results.items()
                                       if code in (0, 4))
    for name, (code, recheck) in rechecked.items():
        own, again = (out_root / name / sub / "certificate.json" for sub in ("", "certify"))
        assert recheck == code and again.read_bytes() == own.read_bytes(), name


def test_survey_sweeps_every_plant_that_passes_pbh(results, out_root):
    # each sweep writes one row per requested order, all of them in range
    for name, (*_docs, analysis) in results.items():
        log = out_root / name / "sweep" / "sweep.log"
        if not analysis["verdict"]["pass"]:
            assert not log.exists(), name
            continue
        assert log.read_text().endswith("exit 0\n"), name
        rows = (out_root / name / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == survey.sweep_orders(analysis), name


def test_survey_bent_twins_fail_at_their_loop(results, out_root):
    # every written controller with unstable states, its feedback gains
    # negated, certifies Failed: its loop is not exponentially stable
    twins = [name for name in results
             if (out_root / name / "controller.json").exists()
             and json.loads((out_root / name / "controller.json").read_text())
             ["dims"]["n_unstable"] >= 1]
    assert twins and twins == [name for name in results if (out_root / name / "bent").exists()]
    for name in twins:
        bent = out_root / name / "bent"
        assert (bent / "certify.log").read_text().endswith("exit 4\n"), name
        cert = json.loads((bent / "certificate.json").read_text())
        assert cert["verdict"] == "Failed", name
        assert cert["diagnostics"][0].startswith(
            "controller loop is not exponentially stable: "), name
