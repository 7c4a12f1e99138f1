"""JSON-lines persistence for traces.

File layout (one JSON object per line):

* line 1 — the **run manifest**: ``{"type": "manifest", "schema": 1,
  "repro_version": ..., "created_unix": ..., ...user fields...}``
  where the user fields record what produced the trace (command, grid
  size, Reynolds numbers, seed).
* one ``{"type": "span", ...}`` line per completed span, in completion
  order, with ``id``/``parent`` linkage, ``depth``, monotonic
  ``t_start``/``t_end`` and the attribute dict;
* one ``{"type": "counter", "name": ..., "value": ...}`` line per
  counter and ``{"type": "gauge", ...}`` per gauge, sorted by name.

Everything is stdlib-only. :func:`merge_traces` combines per-worker
trace files from a parallel sweep into one file: span streams are
concatenated (each span gains a ``source`` field naming its shard),
counters are summed, and the merged manifest keeps every shard's
manifest under ``"shards"``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.checkpoint.atomic import atomic_write_text
from repro.trace.tracer import Tracer

__all__ = [
    "SCHEMA_VERSION",
    "TraceFile",
    "build_manifest",
    "write_trace",
    "read_trace",
    "merge_traces",
]

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def build_manifest(
    *field_maps: Optional[Dict[str, Any]], **fields: Any
) -> Dict[str, Any]:
    """The one place a run manifest is stamped.

    Every manifest-shaped header in this repo — the JSONL trace header,
    the merged-shard header, the bench report's provenance block —
    carries the same base fields (``type``/``schema``/``repro_version``/
    ``created_unix``). Building them in one function means the fields
    cannot drift between writers. Positional dicts are merged in order
    (``None`` entries skipped), then keyword fields; later values win —
    except the ``"type"`` tag, which readers dispatch on and which no
    user field may clobber (a manifest line typed anything else would
    make the whole trace unreadable).
    """
    from repro import __version__

    manifest: Dict[str, Any] = {
        "type": "manifest",
        "schema": SCHEMA_VERSION,
        "repro_version": __version__,
        "created_unix": time.time(),
    }
    for field_map in field_maps:
        if field_map:
            manifest.update(field_map)
    manifest.update(fields)
    manifest["type"] = "manifest"
    return manifest


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and other odd ducks) to plain JSON types."""
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar -> native python scalar
        return item()
    if isinstance(value, (set, tuple)):
        return list(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@dataclass
class TraceFile:
    """A parsed trace: manifest plus raw span/counter/gauge records.

    ``truncated`` flags a torn trailing line — the signature of a
    process killed mid-write. The complete records before it are still
    trustworthy and are returned; tools should surface the flag rather
    than pretend the file is whole.
    """

    manifest: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    truncated: bool = False

    def spans_named(self, name: str) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span.get("name") == name]


def write_trace(
    tracer: Tracer,
    path: PathLike,
    manifest_extra: Optional[Dict[str, Any]] = None,
    check_closed: bool = True,
) -> Path:
    """Export a tracer's records as JSONL; returns the written path.

    The file is written atomically (tmp + fsync + rename): a crash or
    SIGKILL mid-export leaves the previous trace (or no file), never a
    half-written one that a later ``trace-summary`` would choke on.
    """
    if check_closed:
        tracer.check_closed()
    manifest = build_manifest(tracer.manifest, manifest_extra)

    path = Path(path)
    lines = [json.dumps(manifest, default=_json_default)]
    for record in tracer.spans:
        line = dict(record.to_record())
        line["type"] = "span"
        lines.append(json.dumps(line, default=_json_default))
    for name in sorted(tracer.counters):
        lines.append(
            json.dumps(
                {"type": "counter", "name": name, "value": tracer.counters[name]},
                default=_json_default,
            )
        )
    for name in sorted(tracer.gauges):
        lines.append(
            json.dumps(
                {"type": "gauge", "name": name, "value": tracer.gauges[name]},
                default=_json_default,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def read_trace(path: PathLike) -> TraceFile:
    """Parse a JSONL trace file (as written by :func:`write_trace`).

    A torn *final* line — what a kill mid-append leaves behind — is
    tolerated and reported via ``TraceFile.truncated``; invalid JSON
    anywhere earlier is real corruption and still raises.
    """
    trace = TraceFile()
    lines = [
        (number, line.strip())
        for number, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        )
        if line.strip()
    ]
    for position, (line_number, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == len(lines) - 1:
                trace.truncated = True
                break
            raise ValueError(f"{path}:{line_number}: not valid JSON: {exc}") from exc
        kind = record.get("type")
        if kind == "manifest":
            trace.manifest = record
        elif kind == "span":
            trace.spans.append(record)
        elif kind == "counter":
            trace.counters[record["name"]] = (
                trace.counters.get(record["name"], 0) + record["value"]
            )
        elif kind == "gauge":
            trace.gauges[record["name"]] = record["value"]
        else:
            raise ValueError(f"{path}:{line_number}: unknown record type {kind!r}")
    return trace


def merge_traces(paths: Sequence[PathLike], out_path: PathLike) -> TraceFile:
    """Merge per-worker shard traces into one file (counters additive).

    Span ids are renumbered into one namespace (parent links preserved
    shard-locally), each span is tagged with its shard ``source``, and
    the merged manifest carries the shard manifests under ``"shards"``.
    """
    if not paths:
        raise ValueError("need at least one trace file to merge")
    shards = [read_trace(path) for path in paths]
    merged = TraceFile(
        manifest=build_manifest(
            merged_from=len(shards),
            shards=[shard.manifest for shard in shards],
        )
    )
    next_id = 1
    for shard_index, (path, shard) in enumerate(zip(paths, shards)):
        source = shard.manifest.get("experiment", Path(path).name)
        id_map: Dict[int, int] = {}
        for span in shard.spans:
            id_map[span["id"]] = next_id
            next_id += 1
        for span in shard.spans:
            relinked = dict(span)
            relinked["id"] = id_map[span["id"]]
            parent = span.get("parent")
            relinked["parent"] = id_map.get(parent) if parent is not None else None
            relinked["source"] = source
            merged.spans.append(relinked)
        for name, value in shard.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        for name, value in shard.gauges.items():
            merged.gauges[name] = value

    lines = [json.dumps(merged.manifest, default=_json_default)]
    for span in merged.spans:
        line = dict(span)
        line["type"] = "span"
        lines.append(json.dumps(line, default=_json_default))
    for name in sorted(merged.counters):
        lines.append(
            json.dumps({"type": "counter", "name": name, "value": merged.counters[name]})
        )
    for name in sorted(merged.gauges):
        lines.append(
            json.dumps({"type": "gauge", "name": name, "value": merged.gauges[name]})
        )
    atomic_write_text(Path(out_path), "\n".join(lines) + "\n")
    return merged
