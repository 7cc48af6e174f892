"""Canonical report serialization.

Reports are JSON documents with sorted keys, two-space indentation, a
trailing newline, and no timestamps or machine identifiers, so a seeded
run writes byte-identical output every time.  Every report embeds the
toolkit version, a schema id, the resolved configuration, the seed, and
a content digest of the input file (when one exists); that envelope is
sufficient to reproduce the run exactly.  The digest is taken where the
input is read, in :mod:`rdtoolkit.sample`, so this module reads no file.
"""

from __future__ import annotations

import json
import math
import sys

from . import __version__

SCHEMA = "rd-toolkit-report/1"


def jsonable(obj):
    """Recursively convert toolkit objects to plain JSON types.

    Non-finite floats become null: they signal "not available" in every
    place they can legally appear (empty bins, degenerate ratios).
    Dataclasses and numpy values (converted last) are read through
    ``sys.modules``, as neither module is imported here: if it is not
    loaded, no value of its kind can exist.
    """
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    dc = sys.modules.get("dataclasses")
    if dc is not None and dc.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dc.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return jsonable(obj.item())
        if isinstance(obj, np.ndarray):
            return [jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(document) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, newline end."""
    return json.dumps(jsonable(document), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def make_report(kind: str, result, config: dict, seed: int | None = None,
                input_digest: str | None = None) -> dict:
    """Wrap a result payload in the reproducibility envelope."""
    return {
        "schema": SCHEMA,
        "kind": kind,
        "toolkit_version": __version__,
        "config": config,
        "seed": seed,
        "input_digest": input_digest,
        "result": result,
    }


def write_report(path, document) -> None:
    text = canonical_json(document)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
