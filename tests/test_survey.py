"""Properties of the survey set (``survey.py``) that every change must keep."""

import pytest

import survey


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return survey.run_survey(str(tmp_path_factory.mktemp("survey")))


def test_survey_pbh_failures_are_the_only_synthesis_failures(results):
    codes = {name: code for name, (code, _cert, _summary) in results.items()}
    assert sorted(name for name, code in codes.items() if code == 5) == sorted(survey.PBH_FAILURES)
    assert set(codes.values()) <= {0, 4, 5}


def test_survey_certified_beta_is_below_the_simulated_decay_rate(results):
    # a certificate's beta is a decay rate of the whole loop, so it stays
    # below -abscissa of the loop at the controller's design N
    certified = {name: (cert, summary) for name, (code, cert, summary) in results.items()
                 if code == 0}
    assert certified
    for name, (cert, summary) in certified.items():
        assert cert["verdict"] == "Certified" and summary["N"] == cert["N"], name
        assert cert["beta"] < -summary["spectral_abscissa"], name
