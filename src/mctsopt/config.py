"""Strict flat config files: [section] headers and key = value lines.

The reader tracks the line of every key so validation errors point at the
exact location, and unknown keys are hard errors (a typo must never turn
into a silent default).  Values are plain strings; callers read a
section through a table of the keys they use, which converts the values
and anchors conversion errors the same way.
"""

from __future__ import annotations

import os
import tempfile


class ConfigError(ValueError):
    """Config problem with a file:line anchor in the message."""


class Config:
    """Parsed sections plus source locations for error anchoring."""

    def __init__(self, path: str):
        self.path = path
        self.sections: dict[str, dict[str, str]] = {}
        self._lines: dict[tuple[str, str], int] = {}
        self._section_lines: dict[str, int] = {}

    def anchor(self, section: str, key: str | None = None) -> str:
        if key is None:
            line = self._section_lines.get(section, 0)
        else:
            line = self._lines.get((section, key), 0)
        return f"{self.path}:{line}"

    def error(self, section: str, key: str | None, msg: str) -> ConfigError:
        return ConfigError(f"{self.anchor(section, key)}: {msg}")

    def section(self, name: str) -> dict[str, str]:
        if name not in self.sections:
            raise ConfigError(f"{self.path}:0: missing required section [{name}]")
        return self.sections[name]

    def read(self, section: str, table: dict) -> dict:
        """Read a section through its table, which maps each key the run
        reads to ``(type, default)`` with type str, int or float; a default
        of REQUIRED makes the key required.

        A key not in the table, a missing required key and a value that
        does not convert are errors anchored at the key's line (the
        section's, for a missing key).  Returns every table key's value,
        the default for an absent key.
        """
        entries = self.section(section)
        for key in entries:
            if key not in table:
                raise self.error(section, key,
                                 f"unknown key {key!r} in [{section}]")
        values = {}
        for key, (convert, default) in table.items():
            if key in entries:
                try:
                    values[key] = convert(entries[key])
                except (TypeError, ValueError) as exc:
                    raise self.error(section, key,
                                     f"{key} = {entries[key]!r} is not a "
                                     f"valid {_TYPE_NAMES[convert]}") from exc
            elif default is REQUIRED:
                raise self.error(section, None,
                                 f"[{section}] is missing required key {key!r}")
            else:
                values[key] = default
        return values


REQUIRED = object()
_TYPE_NAMES = {str: "string", int: "integer", float: "number"}


def read_config(path: str) -> Config:
    config = Config(path)
    current: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}:0: cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if name in config.sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            config.sections[name] = {}
            config._section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value' or '[section]', "
                f"got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key/value before any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in config.sections[current]:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        config.sections[current][key] = value
        config._lines[(current, key)] = lineno
    return config


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_sections(sections: dict[str, dict[str, str]]) -> str:
    """Render sections in the same format read_config accepts."""
    parts = []
    for name, entries in sections.items():
        parts.append(f"[{name}]")
        for key, value in entries.items():
            parts.append(f"{key} = {value}")
        parts.append("")
    return "\n".join(parts)
