#!/usr/bin/env python3
"""CI check-lint validator: structural checks on a `kumquat check --json`
document (schema v1, produced by src/check/check.cpp, documented in
docs/CHECKS.md).

    bench/check_diag_json.py <check.json> [--max-errors N] [--min-pipelines N]

Asserts:

  - top level is an object with kumquat_check_version == 1
  - status is one of clean/info/warnings/errors and exit_code is 0/1/2,
    and the two agree (errors <=> 2, warnings <=> 1, clean|info <=> 0)
  - summary carries integer pipelines/stages/errors/warnings/infos and the
    counts re-add from the per-pipeline diagnostics exactly
  - every pipeline entry has name, pipeline, status, a stages list
    (index/display/mode/seq_reason/memory_class/rss_model) and a
    diagnostics list; a stage's memory_class is one of the labels the
    runtime's placement gives a node (stream::place, docs/ARCHITECTURE.md)
  - every diagnostic has a KQ-* code, a known severity, a stage span with
    0 <= stage_begin <= stage_end < len(stages), and non-empty message
  - at most --max-errors error-severity diagnostics (default 0: the
    analyzer finding an unrunnable stage in a checked-in catalog is a CI
    failure, not a lint note)
  - at least --min-pipelines pipeline entries (default 1)

Exit status: 0 valid, 1 structural problem or error budget exceeded,
2 usage/IO error.
"""

import json
import sys

STATUSES = {"clean", "info", "warnings", "errors"}
SEVERITIES = {"info", "warning", "error"}
STAGE_KEYS = ("display", "mode", "seq_reason", "memory_class", "rss_model")
PLACEMENT_LABELS = {"streaming", "sharded-streaming", "sortable-spill",
                    "sharded-spill-merge", "materialize", "sharded",
                    "stateless-stream", "window-stream"}


def main() -> int:
    args = sys.argv[1:]
    max_errors = 0
    min_pipelines = 1
    for flag, default in (("--max-errors", 0), ("--min-pipelines", 1)):
        if flag in args:
            i = args.index(flag)
            try:
                value = int(args[i + 1])
            except (IndexError, ValueError):
                print(__doc__, file=sys.stderr)
                return 2
            del args[i:i + 2]
            if flag == "--max-errors":
                max_errors = value
            else:
                min_pipelines = value
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_diag_json: {e}", file=sys.stderr)
        return 2

    problems = []
    if not isinstance(doc, dict) or doc.get("kumquat_check_version") != 1:
        print("check_diag_json: not a kumquat_check_version 1 document",
              file=sys.stderr)
        return 1

    status = doc.get("status")
    exit_code = doc.get("exit_code")
    if status not in STATUSES:
        problems.append(f"bad status {status!r}")
    if exit_code not in (0, 1, 2):
        problems.append(f"bad exit_code {exit_code!r}")
    want_code = {"errors": 2, "warnings": 1}.get(status, 0)
    if exit_code != want_code:
        problems.append(
            f"status {status!r} and exit_code {exit_code!r} disagree")

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing summary object")
        summary = {}
    for key in ("pipelines", "stages", "errors", "warnings", "infos"):
        if not isinstance(summary.get(key), int):
            problems.append(f"summary.{key} missing or not an int")

    pipelines = doc.get("pipelines")
    if not isinstance(pipelines, list):
        print("check_diag_json: no pipelines list", file=sys.stderr)
        return 1

    counts = {"error": 0, "warning": 0, "info": 0}
    total_stages = 0
    for n, entry in enumerate(pipelines):
        where = f"pipeline {n}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        name = entry.get("name")
        where = f"pipeline {n} ({name!r})"
        for key in ("name", "pipeline"):
            if not isinstance(entry.get(key), str) or not entry.get(key):
                problems.append(f"{where}: missing {key}")
        if entry.get("status") not in STATUSES:
            problems.append(f"{where}: bad status {entry.get('status')!r}")
        stages = entry.get("stages")
        if not isinstance(stages, list) or not stages:
            problems.append(f"{where}: missing stages list")
            stages = []
        total_stages += len(stages)
        for i, stage in enumerate(stages):
            if not isinstance(stage, dict):
                problems.append(f"{where} stage {i}: not an object")
                continue
            if stage.get("index") != i:
                problems.append(f"{where} stage {i}: index mismatch")
            for key in STAGE_KEYS:
                if not isinstance(stage.get(key), str) or not stage.get(key):
                    problems.append(f"{where} stage {i}: missing {key}")
            if stage.get("mode") not in ("parallel", "sequential"):
                problems.append(
                    f"{where} stage {i}: bad mode {stage.get('mode')!r}")
            if stage.get("memory_class") not in PLACEMENT_LABELS:
                problems.append(f"{where} stage {i}: memory_class "
                                f"{stage.get('memory_class')!r} is no "
                                f"placement label")
        diags = entry.get("diagnostics")
        if not isinstance(diags, list):
            problems.append(f"{where}: missing diagnostics list")
            diags = []
        for i, d in enumerate(diags):
            dwhere = f"{where} diagnostic {i}"
            if not isinstance(d, dict):
                problems.append(f"{dwhere}: not an object")
                continue
            code = d.get("code")
            if not isinstance(code, str) or not code.startswith("KQ-"):
                problems.append(f"{dwhere}: bad code {code!r}")
            severity = d.get("severity")
            if severity not in SEVERITIES:
                problems.append(f"{dwhere}: bad severity {severity!r}")
            else:
                counts[severity] += 1
            begin, end = d.get("stage_begin"), d.get("stage_end")
            if (not isinstance(begin, int) or not isinstance(end, int)
                    or not 0 <= begin <= end < max(len(stages), 1)):
                problems.append(
                    f"{dwhere}: bad stage span [{begin!r}, {end!r}]")
            if not isinstance(d.get("message"), str) or not d.get("message"):
                problems.append(f"{dwhere}: missing message")
            if not isinstance(d.get("hint"), str):
                problems.append(f"{dwhere}: missing hint (may be empty)")

    for key, severity in (("errors", "error"), ("warnings", "warning"),
                          ("infos", "info")):
        if summary.get(key) != counts[severity]:
            problems.append(
                f"summary.{key} = {summary.get(key)!r} but counted "
                f"{counts[severity]}")
    if summary.get("pipelines") != len(pipelines):
        problems.append(
            f"summary.pipelines = {summary.get('pipelines')!r} but counted "
            f"{len(pipelines)}")
    if summary.get("stages") != total_stages:
        problems.append(
            f"summary.stages = {summary.get('stages')!r} but counted "
            f"{total_stages}")
    if len(pipelines) < min_pipelines:
        problems.append(
            f"only {len(pipelines)} pipelines; expected at least "
            f"{min_pipelines}")
    if counts["error"] > max_errors:
        problems.append(
            f"{counts['error']} error-severity diagnostics exceed the "
            f"budget of {max_errors}")

    if problems:
        print("check-lint FAILED:", file=sys.stderr)
        for p in problems[:40]:
            print(f"  {p}", file=sys.stderr)
        if len(problems) > 40:
            print(f"  ... and {len(problems) - 40} more", file=sys.stderr)
        return 1
    print(f"check diagnostics ok: {len(pipelines)} pipelines, "
          f"{total_stages} stages, {counts['error']} errors, "
          f"{counts['warning']} warnings, {counts['info']} infos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
