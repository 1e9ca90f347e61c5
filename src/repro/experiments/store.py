"""Persisting experiment results and diffing runs.

Reproduction hygiene: every experiment's results can be serialized to a
JSON document (dataclasses flatten naturally) and two stored runs can be
diffed with per-metric relative tolerances — the regression-tracking
workflow for anyone modifying the models.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError

PathLike = Union[str, pathlib.Path]


def _flatten(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _flatten(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _flatten(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_flatten(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_flatten(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, pathlib.PurePath):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value"):  # enums
        return value.value
    raise ConfigurationError(
        f"cannot serialize {type(value).__name__} into a result store")


def save_results(results: Any, path: PathLike,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
    """Serialize experiment *results* (dataclasses/lists/dicts) to JSON."""
    document = {
        "metadata": metadata or {},
        "results": _flatten(results),
    }
    pathlib.Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_results(path: PathLike) -> Dict[str, Any]:
    """Load a stored run: ``{"metadata": ..., "results": ...}``.

    An unreadable or malformed file is a :class:`ConfigurationError`
    naming *path*.
    """
    try:
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(document, dict) or "results" not in document:
        raise ConfigurationError(f"{path} is not a result store document")
    return document


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One numeric metric that moved between two runs."""

    path: str
    before: float
    after: float

    @property
    def relative_change(self) -> float:
        """(after - before) / |before| (inf when before is 0)."""
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return (self.after - self.before) / abs(self.before)


def diff_results(before: Dict[str, Any], after: Dict[str, Any],
                 tolerance: float = 1e-9) -> List[MetricDelta]:
    """All numeric metrics whose relative change exceeds *tolerance*.

    Structural differences (missing keys, type changes) are reported as
    deltas with NaN endpoints so they cannot be silently ignored.
    """
    deltas: List[MetricDelta] = []
    _walk_diff(before.get("results"), after.get("results"), "",
               tolerance, deltas)
    return deltas


def _walk_diff(before: Any, after: Any, path: str, tolerance: float,
               deltas: List[MetricDelta]) -> None:
    nan = float("nan")
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            child = f"{path}.{key}" if path else key
            if key not in before or key not in after:
                deltas.append(MetricDelta(child, nan, nan))
                continue
            _walk_diff(before[key], after[key], child, tolerance, deltas)
        return
    if isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            deltas.append(MetricDelta(f"{path}[len]",
                                      float(len(before)),
                                      float(len(after))))
        for index, (b, a) in enumerate(zip(before, after)):
            _walk_diff(b, a, f"{path}[{index}]", tolerance, deltas)
        return
    if isinstance(before, bool) or isinstance(after, bool):
        if before != after:
            deltas.append(MetricDelta(path, float(before), float(after)))
        return
    if isinstance(before, (int, float)) and isinstance(after, (int, float)):
        if before == after:
            return
        reference = abs(before) if before else 1.0
        if abs(after - before) / reference > tolerance:
            deltas.append(MetricDelta(path, float(before), float(after)))
        return
    if before != after:
        deltas.append(MetricDelta(path, nan, nan))


def render_diff(deltas: List[MetricDelta], limit: int = 30) -> str:
    """Human-readable diff summary."""
    if not deltas:
        return "no metric changes"
    lines = [f"{len(deltas)} metric change(s):"]
    for delta in deltas[:limit]:
        change = delta.relative_change
        if change != change:  # NaN: structural
            lines.append(f"  {delta.path}: structural change")
        else:
            lines.append(f"  {delta.path}: {delta.before:g} -> "
                         f"{delta.after:g} ({change:+.1%})")
    if len(deltas) > limit:
        lines.append(f"  ... and {len(deltas) - limit} more")
    return "\n".join(lines)
