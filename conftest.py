"""Repo-wide pytest configuration.

Redirects the artifact cache into a per-session temporary directory so
test runs neither read nor pollute the developer's ``~/.cache/granula``.
CI can pre-set ``GRANULA_CACHE_DIR`` to persist the cache across runs;
an explicit setting always wins.
"""

from __future__ import annotations

import os

import pytest

from repro.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    if os.environ.get(CACHE_DIR_ENV):
        yield
        return
    cache_dir = tmp_path_factory.mktemp("granula-cache")
    os.environ[CACHE_DIR_ENV] = str(cache_dir)
    try:
        yield
    finally:
        os.environ.pop(CACHE_DIR_ENV, None)
