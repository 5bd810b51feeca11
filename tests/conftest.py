import os

import pytest

import redoku.pipeline
from redoku.board import Board

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def board():
    return Board(3)


@pytest.fixture(scope="session")
def board2():
    return Board(2)


@pytest.fixture(scope="session")
def corpus_path():
    return os.path.join(DATA_DIR, "corpus17.txt")


@pytest.fixture(scope="session")
def bad_corpus_path():
    return os.path.join(DATA_DIR, "corpus_bad.txt")


@pytest.fixture
def fresh_pipeline_caches():
    # A patched witness search must neither read a catalog cached before it
    # nor leave its catalog to the tests after it.
    redoku.pipeline._level.cache_clear()
    yield
    redoku.pipeline._level.cache_clear()
