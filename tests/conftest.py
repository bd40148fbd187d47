import os
import sys
from pathlib import Path

import pytest

# make the sibling oracle helpers importable from any test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

# `python -m freecurve` in a subprocess imports the package from this
# checkout too, as the tests themselves do (pyproject's pytest pythonpath)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def corpus_results():
    """One shared run of the shipped corpus (two-prime plan, seed 0)."""
    from freecurve.corpus import run_corpus
    from freecurve.data import shipped_corpus_dir

    return run_corpus(shipped_corpus_dir(), seed=0, mode="auto")


@pytest.fixture(scope="session")
def random_curve_survey():
    """Classification survey over >= 50 random reduced curves of degree 4..9.

    One rank profile per curve: r, tau and the classification all read it.
    """
    from curvegen import random_reduced_curves
    from freecurve.classify import classify
    from freecurve.invariants import compute_bundle

    survey = []
    for profile in random_reduced_curves(52):
        bundle = compute_bundle(profile)
        survey.append((profile.f, bundle.r, bundle.tau, classify(bundle)))
    return survey
