import pytest


@pytest.fixture(autouse=True)
def parse_cache_in_tmp_path(tmp_path, monkeypatch):
    """Each test, and every CLI process it starts, keeps ``load_csv``'s cache under its
    own ``tmp_path``: no test reads an entry that another test or an earlier run wrote."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
