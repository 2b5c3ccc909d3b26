"""Structured app config: a JSON file mirroring the component configs, with
unknown keys rejected. CLI flags override file values."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .embed import EmbedderConfig
from .errors import InvalidConfig
from .metrics import MetricConfig
from .rag import RagConfig
from .sweep import DEFAULT_CHUNK_SIZES


@dataclass
class AppConfig:
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    rag: RagConfig = field(default_factory=RagConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)
    chunk_sizes: list[int] = field(default_factory=lambda: list(DEFAULT_CHUNK_SIZES))
    overlap: int = 0
    llm_endpoint_url: str = ""
    llm_model: str = ""
    cache_dir: str = ""


def _build(cls, obj: dict, where: str):
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{where}: expected an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidConfig(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**obj)
    except TypeError as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc


def load_app_config(path: str | Path) -> AppConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    app = _build(AppConfig, obj, str(path))
    for key, cls in (("embedder", EmbedderConfig), ("rag", RagConfig),
                     ("metric", MetricConfig)):
        if key in obj:
            setattr(app, key, _build(cls, obj[key], f"{path}:{key}"))
    return app
