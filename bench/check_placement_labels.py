#!/usr/bin/env python3
"""CI check-lint: `kumquat run --check` labels every stage with the memory
label `kumquat run --stats` prints for the node that runs it, at the same
flags (both read stream::place; docs/CHECKS.md).

    bench/check_placement_labels.py KUMQUAT INPUT PIPELINE [RUN FLAG ...]

Runs `KUMQUAT run --check FLAGS PIPELINE`, then `KUMQUAT run --stats FLAGS
PIPELINE < INPUT`, maps each --stats node to the stages its row joins
(" | "-separated stage displays, compared as shell words: --check prints a
stage as written, --stats its command's display name, which drops quotes a
word does not need), and compares the labels stage by stage.

Exit status: 0 every label matches, 1 a mismatch, 2 usage or run error.
"""

import re
import shlex
import subprocess
import sys

INDEXED = re.compile(r"^  \[\d+\] (.*)$")
MEMORY = re.compile(r"\bmemory=(\S+)")


def rows(text, stop=None):
    """(display, memory label) per indexed row of a --check or --stats
    table, up to the line `stop`."""
    out = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if stop is not None and line == stop:
            break
        m = INDEXED.match(line)
        if m and i + 1 < len(lines):
            label = MEMORY.search(lines[i + 1])
            if label:
                out.append((m.group(1), label.group(1)))
    return out


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    kumquat, input_path, pipeline = sys.argv[1:4]
    flags = sys.argv[4:]
    check = subprocess.run([kumquat, "run", "--check", *flags, pipeline],
                           capture_output=True, text=True)
    if check.returncode not in (0, 1):
        print(f"run --check exited {check.returncode}: {check.stderr}",
              file=sys.stderr)
        return 2
    with open(input_path, "rb") as stdin:
        run = subprocess.run([kumquat, "run", "--stats", *flags, pipeline],
                             stdin=stdin, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"run --stats exited {run.returncode}: {run.stderr}",
              file=sys.stderr)
        return 2
    stages = rows(check.stdout, stop="diagnostics:")
    nodes = rows(run.stderr)

    def words(members):
        return shlex.split(" | ".join(members))

    problems = []
    i = 0
    for commands, label in nodes:
        members = []
        while i < len(stages) and words(members) != words([commands]):
            members.append(stages[i][0])
            if stages[i][1] != label:
                problems.append(f"stage [{i}] {stages[i][0]}: check says "
                                f"{stages[i][1]}, --stats says {label}")
            i += 1
        if words(members) != words([commands]):
            problems.append(f"no stages join into the node '{commands}'")
            break
    if not nodes or i != len(stages):
        problems.append(f"{len(stages)} stages, but the nodes cover {i}")
    where = f"{' '.join(flags)} '{pipeline}'"
    if problems:
        print(f"placement labels differ for {where}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"placement labels match for {where}: {len(stages)} stages in "
          f"{len(nodes)} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
