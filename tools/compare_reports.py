"""Compare two output directories of tools/write_reports.py.

    python3 tools/compare_reports.py OLD NEW

For every report file whose bytes differ between OLD and NEW it prints
what moved:

- a JSON report: each record (check) whose `max_residual` moved, with
  its old and new value and |delta|, and each table whose numbers
  moved, with the largest |delta| and how many of its numbers moved;
- an `.exit` file: both versions;
- a text report: nothing more when its JSON report moved too (the
  text is written from the same records), else both versions.

A closing summary names the largest record and table move over all
files.  The exit code is 1 if the results of a run changed: a report
present in one directory only, a check-name set, a `passed` value, an
`.exit` file, a field other than the records' residuals and the
tables' numbers, or the layout of a table; else 0, moved values
included.
"""

import json
import math
import sys
from pathlib import Path


def _load(path):
    """A JSON report as a dict; None for a run that wrote none (bad input)."""
    text = path.read_text(encoding="utf-8")
    return json.loads(text) if text.strip() else None


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _residual_delta(old, new):
    """|new - old| of two max_residual values; a non-finite residual is
    written as null, and null against a number is an infinite move."""
    if old is None or new is None:
        return 0.0 if old is new else math.inf
    return abs(new - old)


def table_moves(old, new, where=""):
    """(largest |delta|, numbers that moved, numbers) over two tables of
    the same layout; a differing layout (keys, lengths, kinds) raises
    ValueError naming where it differs."""
    if _is_number(old) and _is_number(new):
        delta = abs(new - old)
        return delta, int(delta != 0.0), 1
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [table_moves(old[k], new[k], f"{where}.{k}") for k in sorted(old)]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [table_moves(a, b, f"{where}[{k}]") for k, (a, b) in enumerate(zip(old, new))]
    elif type(old) is type(new) and old == new:
        return 0.0, 0, 0
    else:
        raise ValueError(f"layout differs at {where or 'the top'}")
    return (max((p[0] for p in parts), default=0.0), sum(p[1] for p in parts),
            sum(p[2] for p in parts))


def compare_json(old, new):
    """(lines, breaks, record moves, table moves) of two JSON reports:
    the printed lines, whether a run's results changed, and
    [(|delta|, check)] and [(|delta|, table)] of what moved."""
    lines, breaks, records, tables = [], False, [], []
    if old is None or new is None:
        return [f"  a report in one run only ({'old' if new is None else 'new'})"], True, [], []
    checks_old, checks_new = old.get("checks", {}), new.get("checks", {})
    for name in sorted(checks_old.keys() ^ checks_new.keys()):
        side = "old" if name in checks_old else "new"
        lines.append(f"  check {name}: in the {side} report only")
        breaks = True
    for name in sorted(checks_old.keys() & checks_new.keys()):
        a, b = checks_old[name], checks_new[name]
        if a["passed"] != b["passed"]:
            lines.append(f"  check {name}: passed {a['passed']} -> {b['passed']}")
            breaks = True
        for key in sorted((a.keys() | b.keys()) - {"max_residual", "passed"}):
            if a.get(key) != b.get(key):
                lines.append(f"  check {name}: {key} {a.get(key)!r} -> {b.get(key)!r}")
                breaks = True
        delta = _residual_delta(a.get("max_residual"), b.get("max_residual"))
        if delta:
            records.append((delta, name))
            lines.append(f"  record {name}: {a['max_residual']!r} -> {b['max_residual']!r}"
                         f"  |delta| {delta:.3g}")
    for key in sorted((old.keys() | new.keys()) - {"checks", "tables", "timestamp"}):
        if old.get(key) != new.get(key):
            lines.append(f"  field {key}: {old.get(key)!r} -> {new.get(key)!r}")
            breaks = True
    tables_old, tables_new = old.get("tables", {}), new.get("tables", {})
    for name in sorted(tables_old.keys() | tables_new.keys()):
        try:
            delta, moved, count = table_moves(tables_old.get(name), tables_new.get(name))
        except ValueError as exc:
            lines.append(f"  table {name}: {exc}")
            breaks = True
            continue
        if moved:
            tables.append((delta, name))
            lines.append(f"  table {name}: {moved} of {count} numbers moved,"
                         f" largest |delta| {delta:.3g}")
    return lines, breaks, records, tables


def compare(old_dir, new_dir, out=sys.stdout):
    """Print what moved between two write_reports.py directories;
    returns the exit code (1 when a run's results changed)."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differing, breaks = 0, False
    worst_record, worst_table = (0.0, None), (0.0, None)
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: in {'OLD' if old.exists() else 'NEW'} only", file=out)
            differing, breaks = differing + 1, True
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        differing += 1
        if name.endswith(".json"):
            lines, broke, records, tables = compare_json(_load(old), _load(new))
            breaks |= broke
            worst_record = max([worst_record] + [(d, f"{c} in {name}") for d, c in records])
            worst_table = max([worst_table] + [(d, f"{t} in {name}") for d, t in tables])
        elif name.endswith(".txt") and _sibling_differs(old, new):
            lines = []
        else:
            lines = [f"  old: {old.read_text(encoding='utf-8')!r}",
                     f"  new: {new.read_text(encoding='utf-8')!r}"]
            breaks = True
        print(name, file=out)
        for line in lines:
            print(line, file=out)
    print(f"{differing} of {len(names)} files differ", file=out)
    for kind, (delta, where) in (("record", worst_record), ("table", worst_table)):
        if where is not None:
            print(f"largest {kind} move: |delta| {delta:.3g}, {where}", file=out)
    if breaks:
        print("the results of a run changed", file=out)
    return int(breaks)


def _sibling_differs(old, new):
    """Whether the JSON report beside a text report differs too."""
    old_json, new_json = old.with_suffix(".json"), new.with_suffix(".json")
    return (old_json.exists() and new_json.exists()
            and old_json.read_bytes() != new_json.read_bytes())


def main(argv):
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print("usage: compare_reports.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
