#!/usr/bin/env python3
"""Degraded-mode invariant gate, no clang-tidy required.

The real enforcement is the swh-tidy plugin (CI job ``swh-tidy``); this
script re-checks the textually checkable subset so environments without
an LLVM toolchain — including the default local build — still catch the
coarse regressions:

  1. raw std:: synchronisation primitives outside util/annotations.hpp
     (textual shadow of swh-raw-sync-primitive);
  2. SWH_HOT_PATH coverage floors on the kernel / scanner / top-k files
     (shadow of the swh-no-alloc-in-hot-path annotation contract — the
     annotations must not silently disappear in a refactor);
  3. every Msg* struct declared in src/net/messages.hpp is mentioned in
     the runtime dispatcher (coarse shadow of swh-msg-visitor-exhaustive).

Run from anywhere: the repo root is located relative to this file.
Exit 0 = clean, 1 = violation, 2 = repo layout changed under the gate.
"""

import os
import re
import sys

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)

RAW_SYNC_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex"
    r"|condition_variable|condition_variable_any|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)\b"
)
RAW_SYNC_ALLOWED = {os.path.join("src", "util", "annotations.hpp")}

# Floors, not exact counts: adding hot functions is fine, losing the
# annotation on an existing one is what this guards against.
HOT_PATH_FLOORS = {
    os.path.join("src", "align", "striped_kernels.hpp"): 2,
    os.path.join("src", "align", "interseq_kernels.hpp"): 2,
    os.path.join("src", "align", "ungapped_kernels.hpp"): 1,
    os.path.join("src", "align", "striped.hpp"): 6,
    os.path.join("src", "align", "interseq.hpp"): 2,
    os.path.join("src", "align", "ungapped.hpp"): 1,
    os.path.join("src", "align", "db_scan.hpp"): 11,
    os.path.join("src", "engines", "topk.hpp"): 3,
}

MESSAGES_HPP = os.path.join("src", "net", "messages.hpp")
# The dispatch chains moved out of hybrid_runtime.cpp in ISSUE 10: the
# master's visit/get_if chain lives in master_protocol.cpp, the slave's
# in slave_loop.cpp (shared by the threaded and socket runtimes), and the
# wire codec in wire.cpp must also name every alternative. Each Msg*
# must appear in at least one dispatcher AND in the codec.
DISPATCHER_CPPS = [
    os.path.join("src", "runtime", "master_protocol.cpp"),
    os.path.join("src", "runtime", "slave_loop.cpp"),
]
CODEC_CPP = os.path.join("src", "net", "wire.cpp")
MSG_STRUCT_RE = re.compile(r"^struct\s+(Msg\w+)\b", re.MULTILINE)


def read(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as f:
        return f.read()


def iter_source_files():
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in filenames:
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                yield os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)


def check_raw_sync(problems):
    for rel in sorted(iter_source_files()):
        if rel in RAW_SYNC_ALLOWED:
            continue
        for lineno, line in enumerate(read(rel).splitlines(), start=1):
            m = RAW_SYNC_RE.search(line)
            if m:
                problems.append(
                    f"{rel}:{lineno}: raw std::{m.group(1)} outside "
                    "util/annotations.hpp; use the swh:: wrappers "
                    "[textual swh-raw-sync-primitive]"
                )


def check_hot_path_floors(problems):
    for rel, floor in sorted(HOT_PATH_FLOORS.items()):
        if not os.path.isfile(os.path.join(REPO_ROOT, rel)):
            problems.append(
                f"{rel}: file listed in the SWH_HOT_PATH coverage floor is "
                "gone; update tools/swh-tidy/textual_gate.py for the new "
                "layout [gate self-consistency]"
            )
            continue
        count = read(rel).count("SWH_HOT_PATH")
        if count < floor:
            problems.append(
                f"{rel}: only {count} SWH_HOT_PATH annotations, floor is "
                f"{floor}; hot-path coverage must not silently shrink "
                "[textual swh-no-alloc-in-hot-path]"
            )


def check_msg_coverage(problems):
    messages = MSG_STRUCT_RE.findall(read(MESSAGES_HPP))
    if not messages:
        problems.append(
            f"{MESSAGES_HPP}: no Msg* structs found; the message grammar "
            "moved — update tools/swh-tidy/textual_gate.py "
            "[gate self-consistency]"
        )
        return
    dispatchers = "\n".join(read(rel) for rel in DISPATCHER_CPPS)
    codec = read(CODEC_CPP)
    for msg in messages:
        if not re.search(rf"\b{re.escape(msg)}\b", dispatchers):
            problems.append(
                f"{' + '.join(DISPATCHER_CPPS)}: never mentions net::{msg}; "
                "the runtime dispatch chains must name every message "
                "alternative [textual swh-msg-visitor-exhaustive]"
            )
        if not re.search(rf"\b{re.escape(msg)}\b", codec):
            problems.append(
                f"{CODEC_CPP}: never mentions net::{msg}; the wire codec "
                "must encode/decode every message alternative "
                "[textual swh-msg-visitor-exhaustive]"
            )


def main():
    for rel in [MESSAGES_HPP, CODEC_CPP] + DISPATCHER_CPPS:
        if not os.path.isfile(os.path.join(REPO_ROOT, rel)):
            print(f"error: {rel} not found under {REPO_ROOT}", file=sys.stderr)
            return 2
    problems = []
    check_raw_sync(problems)
    check_hot_path_floors(problems)
    check_msg_coverage(problems)
    if problems:
        print(f"textual_gate: {len(problems)} violation(s)", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("textual_gate: clean (raw-sync, hot-path floors, msg coverage)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
