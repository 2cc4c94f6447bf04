"""Properties of the survey set (``survey.py``) that every change must keep."""

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
