"""Structured app config: a JSON file mirroring the component configs, with
unknown keys and values of the wrong type rejected. Each command resolves
its flags and file into one AppConfig."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import check_fields
from .embed import EmbedderConfig
from .errors import InvalidConfig
from .metrics import MetricConfig
from .rag import RagConfig

DEFAULT_CHUNK_SIZES = [250, 500, 1000, 2000, 4000, 8000]


@dataclass
class AppConfig:
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    rag: RagConfig = field(default_factory=RagConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)
    chunk_sizes: list[int] = field(default_factory=lambda: list(DEFAULT_CHUNK_SIZES))
    llm_endpoint_url: str = ""
    llm_model: str = ""
    cache_dir: str = ""

    def __post_init__(self):
        if not self.chunk_sizes:
            raise InvalidConfig("chunk_sizes must be non-empty")
        if any(b <= a for a, b in zip(self.chunk_sizes, self.chunk_sizes[1:])):
            raise InvalidConfig("chunk_sizes must be strictly increasing")
        if self.chunk_sizes[0] <= 0:  # the smallest size
            raise InvalidConfig(f"chunk size must be > 0, got {self.chunk_sizes[0]}")


# the config sections, by their field type's name
_SECTIONS = {"EmbedderConfig": EmbedderConfig, "RagConfig": RagConfig,
             "MetricConfig": MetricConfig}
# the JSON values a field of each type accepts; type(), not isinstance:
# JSON true is a bool, and bool is an int
_ACCEPTS = {
    "str": lambda v: type(v) is str,
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (float, int),
    "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v),
}


def _build(cls, obj, where: str):
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{where}: expected an object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise InvalidConfig(f"{where}: unknown keys {sorted(unknown)}")
    values = {}
    for name, value in obj.items():
        kind = types[name]
        if kind in _SECTIONS:
            value = _build(_SECTIONS[kind], value, f"{where}:{name}")
        elif not _ACCEPTS[kind](value):
            raise InvalidConfig(f"{where}:{name}: expected {kind}, "
                                f"got {type(value).__name__}")
        values[name] = value
    try:  # a string that is not UTF-8 text is rejected as in a corpus line
        check_fields(values, {n: (str,) for n, v in values.items() if type(v) is str})
        return cls(**values)
    except InvalidConfig as exc:  # name the file, and the section it is in
        raise InvalidConfig(f"{where}: {exc}") from exc


def load_app_config(path: str | Path) -> AppConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return _build(AppConfig, obj, str(path))
