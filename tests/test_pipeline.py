"""Validation of the pipeline settings, and the records of a run."""

import pytest

from authalic.pipeline import ParameterizeConfig, parameterize


def test_unknown_correction_rejected_on_construction():
    # "rgb" used to run no fold correction at all, silently
    with pytest.raises(ValueError, match="correct 'rgb'"):
        ParameterizeConfig(correct="rgb")
    for correct in ("off", "fpi", "rgd", "both"):
        assert ParameterizeConfig(correct=correct).correct == correct


def test_unknown_strategy_rejected_on_construction():
    # rejected before the conformal start and FPI run, not inside the
    # first line search
    with pytest.raises(ValueError, match="strategy 'golden'"):
        ParameterizeConfig(strategy="golden")
    for strategy in ("interpolant", "bounded"):
        assert ParameterizeConfig(strategy=strategy).strategy == strategy


def test_record_clock_runs_from_the_start_of_the_run(ellipsoid3):
    # FPI and descent time their records from their own starts; the run's
    # records read one clock, the one `seconds` is read from
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=10))
    assert result.fpi_iterations >= 1 and len(result.rgd.records) == 10
    elapsed = [r.elapsed_s for r in result.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:])), elapsed
    assert elapsed[-1] <= result.seconds
