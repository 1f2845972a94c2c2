"""Fixtures that every test uses."""

import pytest


@pytest.fixture(autouse=True)
def private_parse_cache(tmp_path, monkeypatch):
    """Point the parse cache at an empty directory of the test's own.

    Reads then write nothing under the real home, and no test finds entries
    that another one left. Child processes inherit the variable.
    """
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache
