"""Strict config reader: parsing, anchored errors, atomic writes."""

import os

import pytest

from mctsopt.config import (ConfigError, REQUIRED, format_sections,
                            read_config, write_atomic)


def write(tmp_path, text):
    path = tmp_path / "test.ini"
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_round_trip(self, tmp_path):
        sections = {"alpha": {"x": "1", "y": "two"}, "beta": {"z": "(1, 2)"}}
        path = str(tmp_path / "rt.ini")
        write_atomic(path, format_sections(sections))
        config = read_config(path)
        assert config.sections == sections

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "# comment\n\n[s]\n; also comment\nk = v\n")
        assert read_config(path).sections == {"s": {"k": "v"}}

    def test_values_may_contain_equals(self, tmp_path):
        path = write(tmp_path, "[s]\nexpr = a = b\n")
        assert read_config(path).sections["s"]["expr"] == "a = b"


class TestErrors:
    def test_key_before_section(self, tmp_path):
        path = write(tmp_path, "k = v\n")
        with pytest.raises(ConfigError, match=r":1:"):
            read_config(path)

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "[s]\nnonsense\n")
        with pytest.raises(ConfigError, match=r":2:"):
            read_config(path)

    def test_duplicate_section(self, tmp_path):
        path = write(tmp_path, "[s]\n[t]\n[s]\n")
        with pytest.raises(ConfigError, match=r":3: duplicate section"):
            read_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "[s]\nk = 1\nk = 2\n")
        with pytest.raises(ConfigError, match=r":3: duplicate key"):
            read_config(path)

    def test_unknown_key_is_line_anchored(self, tmp_path):
        path = write(tmp_path, "[s]\ngood = 1\nbogus = 2\n")
        config = read_config(path)
        with pytest.raises(ConfigError, match=r":3: unknown key 'bogus'"):
            config.read("s", {"good": (int, 0)})

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "[s]\ngood = 1\n")
        config = read_config(path)
        with pytest.raises(ConfigError, match="missing required key 'need'"):
            config.read("s", {"good": (int, 0), "need": (int, REQUIRED)})

    def test_missing_section(self, tmp_path):
        path = write(tmp_path, "[s]\nk = 1\n")
        with pytest.raises(ConfigError, match=r"missing required section"):
            read_config(path).section("other")

    def test_bad_typed_value_is_anchored(self, tmp_path):
        path = write(tmp_path, "[s]\nnum = abc\n")
        config = read_config(path)
        with pytest.raises(ConfigError, match=r":2:.*not a valid integer"):
            config.read("s", {"num": (int, 0)})
        with pytest.raises(ConfigError, match=r":2:.*not a valid number"):
            config.read("s", {"num": (float, 0.0)})
        assert config.read("s", {"num": (str, "x")}) == {"num": "abc"}

    def test_required_getter(self, tmp_path):
        path = write(tmp_path, "[s]\nk = 1\n")
        config = read_config(path)
        assert config.read("s", {"k": (int, REQUIRED), "d": (float, 2.5),
                                 "n": (int, None)}) == \
            {"k": 1, "d": 2.5, "n": None}
        with pytest.raises(ConfigError, match=r":1: \[s\] is missing "
                                              r"required key 'absent'"):
            config.read("s", {"k": (int, REQUIRED), "absent": (int, REQUIRED)})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(str(tmp_path / "missing.ini"))

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[s]\nname = caf\xe9\n")
        with pytest.raises(ConfigError, match=rf"^{path}:0: cannot read config: "
                                              r"'utf-8' codec can't decode"):
            read_config(str(path))


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        write_atomic(path, "one\n")
        write_atomic(path, "two\n")
        assert open(path).read() == "two\n"
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "dir" / "out.txt")
        write_atomic(path, "x")
        assert open(path).read() == "x"
