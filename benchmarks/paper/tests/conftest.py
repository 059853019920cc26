from tests.conftest import (  # noqa: F401 - re-exported as fixtures
    dataset,
    feature_matrices,
    small_classification_data,
    world,
)
