import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run the long exhaustion searches (about 2 minutes on 2 cores)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def pool_at_once(monkeypatch):
    """End the serial period of a search at width K > 1 at its start, so
    the first level with two or more pieces hands them to the pool however
    short the search (see movefit._SERIAL_SECONDS)."""
    from borderrank import movefit

    monkeypatch.setattr(movefit, "_SERIAL_SECONDS", 0)
