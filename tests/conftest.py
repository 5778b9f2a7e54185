import numpy as np
import pytest
from scipy.stats import chi2


def _chi2_pvalue(draws, law):
    """Chi-square p-value of integer draws against a frozen scipy law, over
    cells of about 2% exact mass each."""
    size = len(draws)
    cuts = np.unique(law.ppf(np.linspace(0.02, 0.98, 49)))
    cuts = cuts[cuts < law.support()[1]]
    observed = np.histogram(draws, np.concatenate(([-0.5], cuts + 0.5, [np.inf])))[0]
    expected = size * np.diff(np.concatenate(([0.0], law.cdf(cuts), [1.0])))
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return chi2.sf(statistic, len(observed) - 1)


@pytest.fixture
def chi2_pvalue():
    """The chi-square goodness-of-fit test the sampler law tests share."""
    return _chi2_pvalue
