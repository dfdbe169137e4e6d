from chordbasis.cache import DiskCache, cache_dir


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("CHORDBASIS_CACHE", str(tmp_path / "env"))
    assert cache_dir() == tmp_path / "env"
    assert cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
    monkeypatch.delenv("CHORDBASIS_CACHE")
    assert cache_dir().name == "chordbasis"


def test_get_returns_none_on_miss(tmp_path):
    assert DiskCache(tmp_path).get_text("nope.txt") is None
