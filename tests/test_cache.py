from pathlib import Path

from chordbasis.cache import DiskCache, cache_dir
from chordbasis.cli import main


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("CHORDBASIS_CACHE", str(tmp_path / "env"))
    assert cache_dir() == tmp_path / "env"
    assert cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
    monkeypatch.delenv("CHORDBASIS_CACHE")
    assert cache_dir().name == "chordbasis"


def test_get_returns_none_on_miss(tmp_path):
    assert DiskCache(tmp_path).get_text("nope.txt") is None


def test_a_writer_finishing_inside_another_writes_leaves_both_whole(tmp_path, monkeypatch):
    cache = DiskCache(tmp_path / "c")
    replace = Path.replace
    raced = []

    def second_writer_first(self, target):
        if not raced:
            raced.append(self)
            # another writer of the same file finishes between this writer's
            # write and its replace
            cache.put_text("a.txt", "second\n")
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", second_writer_first)
    cache.put_text("a.txt", "first\n")
    assert raced
    written = tmp_path / "c" / "a.txt"
    assert written.read_bytes() == b"first\n"
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["a.txt"]  # no temp file left
    plain = tmp_path / "plain.txt"
    plain.write_text("first\n", encoding="utf-8")
    assert written.stat().st_mode == plain.stat().st_mode


def test_a_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # a directory in the place of the basis file: each replace fails
    cache = tmp_path / "c"
    (cache / "basis-m2-n3.txt").mkdir(parents=True)
    for _ in range(2):
        assert main(["--cache", str(cache), "basis", "2", "3"]) == 2
        assert not list(cache.glob("*.tmp"))
    assert "error: " in capsys.readouterr().err
