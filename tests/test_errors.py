import pickle

import pytest

from bestofn import errors

_INSTANCES = {
    "BestOfNError": lambda: errors.BestOfNError("something failed"),
    "InvalidDistributionError": lambda: errors.InvalidDistributionError("CDF not normalized"),
    "InvalidDataError": lambda: errors.InvalidDataError("non-finite score in record 3"),
    "InsufficientDataError": lambda: errors.InsufficientDataError("need at least 8 values"),
    "DegeneratePoolError": lambda: errors.DegeneratePoolError("test scores have zero variance"),
    "ResamplingDegenerateError": lambda: errors.ResamplingDegenerateError(0.0125),
    "PoolFileError": lambda: errors.PoolFileError(
        "malformed rows in runs.csv", [(3, "missing 'test' value"), (7, "expected a JSON object")]
    ),
}


def test_every_error_class_has_an_instance_here():
    assert sorted(_INSTANCES) == sorted(errors.__all__)


@pytest.mark.parametrize("name", errors.__all__)
def test_every_error_survives_a_pickle_round_trip(name):
    # as it must to cross a process boundary
    error = _INSTANCES[name]()
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)
