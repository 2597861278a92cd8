"""Validation of the pipeline settings."""

import pytest

from authalic.pipeline import ParameterizeConfig


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
