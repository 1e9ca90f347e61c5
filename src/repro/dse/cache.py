"""Content-addressed result cache for design-space exploration.

Each evaluated configuration is persisted as one JSON document named by
its configuration hash, written and read through
:mod:`repro.experiments.store` so cached records use the same on-disk
format as every other stored run.  A hit requires both the hash *and*
the model version to match — bumping
:data:`repro.dse.evaluate.MODEL_VERSION` invalidates every stale entry
without touching the filesystem.

Corrupt or foreign files in the cache directory are treated as misses,
never as errors: a cache must not be able to break an exploration.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.experiments import store

PathLike = Union[str, pathlib.Path]


class ResultCache:
    """Persistent configuration-hash -> evaluation-record store."""

    def __init__(self, directory: PathLike):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, config_hash: str) -> pathlib.Path:
        return self.directory / f"{config_hash}.json"

    def get(self, config_hash: str,
            model_version: str) -> Optional[Dict[str, Any]]:
        """The cached record, or ``None`` on miss / version mismatch."""
        path = self._path(config_hash)
        if not path.exists():
            return None
        try:
            document = store.load_results(path)
        except ConfigurationError:
            return None
        metadata = document.get("metadata", {})
        if metadata.get("model_version") != model_version:
            return None
        record = document["results"]
        if not isinstance(record, dict) \
                or record.get("config_hash") != config_hash:
            return None
        return record

    def put(self, record: Dict[str, Any]) -> None:
        """Persist one evaluation record under its configuration hash."""
        store.save_results(record, self._path(record["config_hash"]),
                           metadata={
                               "kind": "dse-record",
                               "config_hash": record["config_hash"],
                               "model_version": record["model_version"],
                           })

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete all cached entries; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
