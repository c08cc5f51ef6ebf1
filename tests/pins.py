"""Scoped re-pins: recompute every pinned key, write only the named ones.

The four pin files (``tests/fl/data/equivalence_baseline.json``,
``tests/fl/data/trace_digests.json``, ``tests/nn/data/layout_digests.json``
and ``tests/cli_golden.json``) each have a regenerator whose ``main``
is :func:`regen`::

    python -m tests.fl.trace_digest_cases --only sync_chaos async_chaos
    python -m tests.fl.trace_digest_cases --check

Every key is recomputed and every key that moved is printed with its
old and new value.  Only the keys named with ``--only`` are written; if
any other key would change, nothing is written and the exit status is
1, so a re-pin can never carry an unexamined pin along with it.
``--check`` writes nothing: with no ``--only`` it passes only when
every pin still holds.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

__all__ = ["regen"]

_MISSING = object()


def _shown(value: Any, limit: int = 100) -> str:
    text = "(absent)" if value is _MISSING else json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _moves(old: Any, new: Any, path: str = ""):
    """``(path, old, new)`` for each leaf where two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _moves(old.get(key, _MISSING), new.get(key, _MISSING),
                              f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moves(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def _report(key: str, tag: str, old: Any, new: Any, limit: int = 6) -> None:
    moves = list(_moves(old, new))
    print(f"{tag} {key}: {len(moves)} value(s) moved")
    for path, a, b in moves[:limit]:
        print(f"    {key}{path}: {_shown(a)} -> {_shown(b)}")
    if len(moves) > limit:
        print(f"    ... and {len(moves) - limit} more")


def regen(
    path: Path,
    compute: Mapping[str, Callable[[], Any]],
    dump: Callable[[dict[str, Any]], str],
    argv: Sequence[str] | None = None,
    load: Callable[[Any], dict[str, Any]] = dict,
) -> int:
    """Recompute ``compute``'s keys against ``path``; write the named ones.

    ``load`` turns the parsed file into one flat ``key -> value`` dict
    and ``dump`` turns such a dict back into the file's text (keys the
    file holds keep their order; new ones follow).  Returns the exit
    status: 0, or 1 when a key not named with ``--only`` would change.
    """
    parser = argparse.ArgumentParser(description=f"re-pin keys of {path.name}")
    parser.add_argument("--only", nargs="+", default=[], metavar="KEY",
                        help="the keys to write (every key is recomputed)")
    parser.add_argument("--check", action="store_true",
                        help="report what would move; write nothing")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.only) - set(compute))
    if unknown:
        parser.error(f"no such key: {', '.join(unknown)}")

    old = load(json.loads(path.read_text())) if path.exists() else {}
    # Compare in JSON form: that is what the file holds.
    new = {key: json.loads(json.dumps(fn())) for key, fn in compute.items()}
    moved = [key for key in compute if old.get(key, _MISSING) != new[key]]
    stray = [key for key in moved if key not in args.only]
    for key in moved:
        tag = "named" if key in args.only else "UNNAMED"
        _report(key, tag, old.get(key, _MISSING), new[key])
    if stray:
        print(f"refusing to write {path.name}: unnamed key(s) would change: "
              + ", ".join(stray))
        return 1
    if args.check:
        print(f"{path.name}: {len(moved)} of {len(compute)} pins would move"
              f"{' (all named)' if moved else ''}; nothing written")
        return 0
    merged = {**old, **{key: new[key] for key in args.only}}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump(merged))
    print(f"wrote {len(args.only)} key(s) to {path}")
    return 0
