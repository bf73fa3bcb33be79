import pytest

from helpers import make_model


@pytest.fixture(scope="session")
def small_model():
    return make_model()
