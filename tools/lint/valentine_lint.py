#!/usr/bin/env python3
"""valentine_lint: repo-invariant linter for the Valentine C++ suite.

The experiment pipeline promises byte-identical results whether a suite
runs on one thread or on 80 (see RunFamilyOnSuite in
src/harness/runner.h). Most of that contract cannot be expressed in the
type system, so this linter machine-checks the repo-wide invariants
that protect it:

  forbidden-random      Nondeterministic randomness sources (std::rand,
                        srand, time(), std::random_device, raw mt19937
                        construction) anywhere outside src/core/rng.*.
                        All randomness must flow through the seeded Rng.
  unordered-iteration   Iteration over std::unordered_map/unordered_set
                        in ranked-output / serialization paths
                        (src/matchers/, src/discovery/, src/knowledge/,
                        src/obs/, src/harness/json_export.*). Hash-order
                        iteration silently reorders equal-score matches
                        and serialized records between platforms/runs.
  ignored-status        Statement-level calls to functions returning
                        Status/Result<T> whose value is discarded.
                        (Backstop for compilers/configs where the
                        [[nodiscard]] warning is not fatal.)
  header-guard          Every header's include guard must be the
                        canonical VALENTINE_<REL_PATH>_H_ spelling.
  include-hygiene       No <bits/stdc++.h>; project headers included
                        with quotes, never angle brackets; a .cpp under
                        src/ includes its own header first (catches
                        headers that are not self-contained).
  pointer-cache-key     std::map/std::unordered_map keyed on a pointer
                        type in src/ library code. Address keys go stale
                        when the pointee's storage moves or is recycled;
                        caches must key on content (cf.
                        matchers::ArtifactCache).
  naked-mutex           Raw std::mutex / std::lock_guard / std::unique_lock
                        (and <mutex>-family includes) in src/ outside the
                        sanctioned wrapper (src/core/mutex.*). Library
                        code must lock through valentine::Mutex/MutexLock
                        so the Clang capability analysis and the debug
                        lock-rank registry both apply; a raw mutex is
                        invisible to both.
  guarded-by-coverage   A class that declares a valentine::Mutex (or raw
                        std::mutex) member must annotate every sibling
                        data member with GUARDED_BY/PT_GUARDED_BY — or
                        explicitly opt it out with
                        // lint:allow(guarded-by-coverage) plus a reason
                        (immutable-after-construction members, typically).
                        Heuristic companion to -Wthread-safety: GCC
                        builds cannot run the analysis, but they can
                        refuse unannotated shared state. static /
                        constexpr / std::atomic members are exempt.
  wallclock-time        std::chrono::system_clock, thread sleeps
                        (sleep_for / sleep_until), and raw
                        steady_clock::now() reads in src/ library code
                        (the latter outside src/obs/ and
                        src/core/deadline.*). Wall clocks jump under
                        NTP and break Deadline math; library code must
                        never block the calling thread (waits are
                        cooperative or delegated via
                        ExecutionPolicy::backoff_wait); and raw steady-
                        clock measurements bypass the injectable
                        valentine::Clock, making timing fields
                        nondeterministic under test.

Usage:
  tools/lint/valentine_lint.py            # lint the default tree
  tools/lint/valentine_lint.py FILE...    # lint specific files
  tools/lint/valentine_lint.py --list-rules

Suppress a finding by appending  // lint:allow(<rule-id>)  with a reason
on the offending line. Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# Directories scanned when no explicit files are given.
DEFAULT_DIRS = ("src", "tests", "bench", "examples", "tools")

CPP_SUFFIXES = {".cpp", ".cc", ".cxx", ".h", ".hpp"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Blanks out string/char literals and // comments so rule regexes
    never fire on prose. Block comments are handled line-wise by the
    caller via in_block_comment state."""
    out = []
    i, n = 0, len(line)
    in_str = None  # quote char when inside a literal
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a comment
        out.append(c)
        i += 1
    return "".join(out)


def iter_code_lines(text: str):
    """Yields (lineno, raw_line, code_line) with comments/strings blanked."""
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield lineno, raw, ""
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # Remove any complete /* ... */ spans, then detect an opener.
        line = re.sub(r"/\*.*?\*/", " ", line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block = True
        yield lineno, raw, strip_comments_and_strings(line)


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return bool(m and m.group(1) == rule)


# --------------------------------------------------------------------------
# Rule: forbidden-random
# --------------------------------------------------------------------------

RANDOM_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])time\s*\("), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
]

# The one place allowed to own raw entropy primitives.
RNG_SOURCES = {"src/core/rng.h", "src/core/rng.cpp"}


def check_forbidden_random(path: Path, rel: str, text: str, out: list):
    if rel in RNG_SOURCES:
        return
    for lineno, raw, code in iter_code_lines(text):
        for pattern, what in RANDOM_PATTERNS:
            if pattern.search(code) and not allowed(raw, "forbidden-random"):
                out.append(Violation(
                    path, lineno, "forbidden-random",
                    f"{what} breaks run-to-run determinism; route randomness "
                    f"through the seeded valentine::Rng (src/core/rng.h)"))


# --------------------------------------------------------------------------
# Rule: unordered-iteration
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*(\w+)\s*[;={(,)]")
# src/text/ and src/stats/ are in scope because their outputs feed ranked
# scores directly (the FuzzyJaccard leftover-pairing bug lived in
# src/text/): greedy/sequential reductions there are just as
# order-sensitive as the matchers themselves. src/discovery/ ranks
# repository tables and src/knowledge/ feeds matcher scores through the
# thesaurus, so hash-order iteration there reorders results the same way.
# src/obs/ serializes traces and Prometheus text that must be
# byte-reproducible under a FakeClock, so its export paths may never
# iterate a hash container either. src/serve/ serializes JSON responses
# whose bytes are contractually identical to direct engine calls
# (tests/serve_service_test.cpp pins this), so the same applies.
ORDER_SENSITIVE_PREFIXES = ("src/matchers/", "src/text/", "src/stats/",
                            "src/discovery/", "src/knowledge/", "src/obs/",
                            "src/serve/", "src/io/", "src/scaling/")
ORDER_SENSITIVE_FILES = {"src/harness/json_export.h", "src/harness/json_export.cpp"}


def order_sensitive(rel: str) -> bool:
    return rel in ORDER_SENSITIVE_FILES or any(
        rel.startswith(p) for p in ORDER_SENSITIVE_PREFIXES)


def check_unordered_iteration(path: Path, rel: str, text: str, out: list):
    if not order_sensitive(rel):
        return
    # Pass 1: names declared (variable or member) with an unordered type.
    unordered_names = set()
    for _, _, code in iter_code_lines(text):
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return
    name_alt = "|".join(re.escape(n) for n in sorted(unordered_names))
    range_for_re = re.compile(
        rf"\bfor\s*\([^;)]*:\s*\*?(?:\w+(?:\.|->))*({name_alt})\s*\)")
    iter_re = re.compile(rf"\b({name_alt})\s*\.\s*(?:begin|cbegin)\s*\(")
    # Pass 2: iteration over those names.
    for lineno, raw, code in iter_code_lines(text):
        m = range_for_re.search(code) or iter_re.search(code)
        if m and not allowed(raw, "unordered-iteration"):
            out.append(Violation(
                path, lineno, "unordered-iteration",
                f"iterating '{m.group(1)}' (std::unordered_*) in a "
                f"ranked-output/serialization path: hash order is "
                f"nondeterministic across runs and platforms — copy into a "
                f"sorted container (std::map / sorted vector) first"))


# --------------------------------------------------------------------------
# Rule: ignored-status
# --------------------------------------------------------------------------

STATUS_FN_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*"
    r"(?:::)?(?:valentine::)?(?:Status|Result\s*<[^;{]+>)\s+(\w+)\s*\(")

# Declarations of the same *name* with a non-Status return type. The rule
# matches call sites by bare method name, so a name used for both (e.g.
# CandidateIndex::Add returns Status while MatchResult::Add returns void)
# cannot be judged at the token level — such names are dropped from the set
# and left to the compiler's [[nodiscard]] enforcement, which is type-aware.
NONSTATUS_FN_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|constexpr\s+)*"
    r"(?:void|bool|int|int64_t|uint64_t|size_t|double|float|auto|"
    r"std::\s*\w[\w:<>,\s*&]*|[A-Z]\w*(?:<[^;{()]*>)?[*&]?)\s+(\w+)\s*\(")


def collect_status_functions(files) -> set:
    """Names of functions/methods declared to return Status or Result<T>,
    harvested from the repo's own headers. Names that are *also* declared
    with a non-Status return type anywhere are excluded as ambiguous."""
    status_names = set()
    other_names = set()
    for path in files:
        if path.suffix != ".h":
            continue
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for _, _, code in iter_code_lines(text):
            m = STATUS_FN_DECL_RE.match(code)
            if m:
                status_names.add(m.group(1))
                continue
            m = NONSTATUS_FN_DECL_RE.match(code)
            if m:
                other_names.add(m.group(1))
    return status_names - other_names


def check_ignored_status(path: Path, rel: str, text: str,
                         status_fns: set, out: list):
    if not status_fns:
        return
    name_alt = "|".join(re.escape(n) for n in sorted(status_fns))
    # A bare statement whose whole content is a (possibly qualified) call
    # to a Status-returning function: `WriteJsonFile(...);`,
    # `table.AddColumn(...);`, `io::csv::WriteCsvFile(...);`. The
    # qualifier chain deliberately excludes parentheses so calls wrapped
    # in macros (VALENTINE_RETURN_NOT_OK, EXPECT_TRUE, ...) or in a
    # `(void)` cast never match.
    call_stmt_re = re.compile(
        rf"^\s*(?:\w+(?:\.|->|::))*({name_alt})\s*\(")
    prev_terminated = True  # whether the previous code line ended a statement
    for lineno, raw, code in iter_code_lines(text):
        stmt_start = prev_terminated
        stripped = code.strip()
        if stripped:
            prev_terminated = (stripped.endswith((";", "{", "}", ":")) or
                               stripped.startswith("#"))
        m = call_stmt_re.match(code)
        if not m or not stmt_start:
            continue
        if not stripped.endswith((";", "(", ",")):
            continue  # part of a larger expression; let the compiler judge
        # A call used as a value on its own line still feeds something:
        # `Foo(...).status();` or `Foo(...).ValueOrDie();` chains are
        # out of scope here.
        if re.search(rf"({name_alt})\s*\([^;]*\)\s*\.", code):
            continue
        if allowed(raw, "ignored-status"):
            continue
        out.append(Violation(
            path, lineno, "ignored-status",
            f"return value of {m.group(1)}() (Status/Result) is discarded; "
            f"check it, propagate with VALENTINE_RETURN_NOT_OK, or cast to "
            f"(void) with a comment"))


# --------------------------------------------------------------------------
# Rule: pointer-cache-key
# --------------------------------------------------------------------------

POINTER_KEY_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?(?:multi)?map\s*<\s*(?:const\s+)?"
    r"[\w:]+\s*(?:const\s*)?\*")

# Caches in src/ key on content (fingerprint + name + prepare key, cf.
# src/matchers/artifact_cache.*), never on an address: an address key
# silently ties a cache entry to storage that can move (vector growth) or
# be reused (allocator recycling), producing stale hits.


def check_pointer_cache_key(path: Path, rel: str, text: str, out: list):
    if not rel.startswith("src/"):
        return
    for lineno, raw, code in iter_code_lines(text):
        if POINTER_KEY_RE.search(code) and not allowed(raw, "pointer-cache-key"):
            out.append(Violation(
                path, lineno, "pointer-cache-key",
                "pointer-keyed map: keying on an object's address ties the "
                "entry to storage that can move or be recycled; key on "
                "content instead (table fingerprint + name, see "
                "src/matchers/artifact_cache.h) or justify with "
                "// lint:allow(pointer-cache-key)"))


# --------------------------------------------------------------------------
# Rule: wallclock-time
# --------------------------------------------------------------------------

# (pattern, message, exempt prefixes). Raw steady-clock reads are only
# sanctioned inside the Clock abstraction itself (src/obs/) and the
# Deadline machinery (src/core/deadline.*), which deliberately stays on
# the real steady clock so wall-clock budgets hold even under a
# FakeClock; every *measurement* elsewhere must flow through an
# injectable valentine::Clock or timing fields go nondeterministic and
# tests are back to scrubbing them.
WALLCLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is wall-clock time (jumps under NTP); "
     "use std::chrono::steady_clock / valentine::Deadline",
     ()),
    (re.compile(r"\bsleep_(?:for|until)\s*\("),
     "library code must not sleep; poll MatchContext::Check for "
     "cooperative waits or route delays through "
     "ExecutionPolicy::backoff_wait",
     ()),
    (re.compile(r"\bsteady_clock\s*::\s*now\s*\("),
     "raw steady_clock::now() makes timing fields nondeterministic; "
     "read time through an injectable valentine::Clock "
     "(src/obs/clock.h) so tests can inject a FakeClock",
     ("src/obs/", "src/core/deadline.")),
]


def check_wallclock_time(path: Path, rel: str, text: str, out: list):
    if not rel.startswith("src/"):
        return
    for lineno, raw, code in iter_code_lines(text):
        for pattern, message, exempt_prefixes in WALLCLOCK_PATTERNS:
            if any(rel.startswith(p) for p in exempt_prefixes):
                continue
            if pattern.search(code) and not allowed(raw, "wallclock-time"):
                out.append(Violation(path, lineno, "wallclock-time", message))


# --------------------------------------------------------------------------
# Rule: naked-mutex
# --------------------------------------------------------------------------

# The one sanctioned home of the raw primitives: the annotated wrapper.
# Everything else in src/ locks through valentine::Mutex/MutexLock, so
# the Clang capability analysis (thread_annotations.h) and the debug
# lock-rank registry (lock_rank.h) see every critical section.
MUTEX_WRAPPER_FILES = {"src/core/mutex.h", "src/core/mutex.cpp"}

NAKED_MUTEX_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_|"
                r"shared_)?mutex\b"),
     "std::mutex"),
    (re.compile(r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|"
                r"shared_lock)\b"),
     "std::lock_guard/unique_lock/scoped_lock"),
    (re.compile(r"\bstd\s*::\s*condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"^\s*#\s*include\s+<(?:mutex|shared_mutex|"
                r"condition_variable)>"),
     "<mutex>-family include"),
]


def check_naked_mutex(path: Path, rel: str, text: str, out: list):
    if not rel.startswith("src/") or rel in MUTEX_WRAPPER_FILES:
        return
    for lineno, raw, code in iter_code_lines(text):
        for pattern, what in NAKED_MUTEX_PATTERNS:
            if pattern.search(code) and not allowed(raw, "naked-mutex"):
                out.append(Violation(
                    path, lineno, "naked-mutex",
                    f"{what} bypasses the annotated locking layer; use "
                    f"valentine::Mutex / MutexLock (src/core/mutex.h) so "
                    f"-Wthread-safety and the lock-rank registry cover "
                    f"this critical section"))
                break  # one finding per line is enough


# --------------------------------------------------------------------------
# Rule: guarded-by-coverage
# --------------------------------------------------------------------------

CLASS_OPEN_RE = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\b")
ENUM_CLASS_RE = re.compile(r"^\s*enum\s+(?:class|struct)\b")
# A valentine::Mutex (or raw std::mutex) data member.
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:valentine\s*::\s*)?(?:Mutex|std\s*::\s*mutex)\s+(\w+)\s*[;{=]")
# A data member by the repo's trailing-underscore convention: an
# identifier ending in '_' directly followed by ';', '=', '{' (brace
# init), or a thread-safety annotation. Function declarations never
# match: their names carry no trailing underscore and their parameter
# lists put '(' right after the name.
DATA_MEMBER_RE = re.compile(
    r"\b(\w+_)\s*(?:;|=|\{|GUARDED_BY\s*\(|PT_GUARDED_BY\s*\()")
GUARD_ANNOTATION_RE = re.compile(r"\b(?:PT_)?GUARDED_BY\s*\(")


def check_guarded_by_coverage(path: Path, rel: str, text: str, out: list):
    if not rel.startswith("src/") or rel in MUTEX_WRAPPER_FILES:
        return
    # Statements: code lines joined until one ends with ';', '{' or '}'
    # (multi-line member declarations carry their GUARDED_BY on a
    # continuation line). Each statement keeps the raw lines so
    # lint:allow anywhere in the declaration is honored.
    statements = []  # (first_lineno, depth_at_start, code, [raw lines])
    depth = 0
    pending = None
    for lineno, raw, code in iter_code_lines(text):
        stripped = code.strip()
        if not stripped and pending is None:
            continue
        if pending is None:
            pending = [lineno, depth, stripped, [raw]]
        else:
            pending[2] += " " + stripped
            pending[3].append(raw)
        depth += code.count("{") - code.count("}")
        if stripped.endswith((";", "{", "}")) or stripped.startswith("#"):
            statements.append(tuple(pending))
            pending = None
    if pending is not None:
        statements.append(tuple(pending))

    # Class scopes: members live at start_depth + 1.
    class_stack = []  # (member_depth, members: [(lineno, code, raws)],
    #                    mutex names)
    findings = []  # deferred: only reported for classes that own a mutex

    def close_scope(scope):
        member_depth, members, mutexes = scope
        if not mutexes:
            return
        for lineno, code, raws in members:
            m = DATA_MEMBER_RE.search(code)
            if not m or m.group(1) in mutexes:
                continue
            if GUARD_ANNOTATION_RE.search(code):
                continue
            if re.search(r"\b(?:static|constexpr)\b", code):
                continue
            if re.search(r"\b(?:std\s*::\s*)?atomic\s*<", code):
                continue
            if any(allowed(r, "guarded-by-coverage") for r in raws):
                continue
            findings.append(Violation(
                path, lineno, "guarded-by-coverage",
                f"member '{m.group(1)}' sits next to mutex "
                f"'{'/'.join(sorted(mutexes))}' but carries no "
                f"GUARDED_BY/PT_GUARDED_BY annotation; annotate it, or "
                f"opt out with // lint:allow(guarded-by-coverage) and a "
                f"reason (e.g. immutable after construction)"))

    for lineno, start_depth, code, raws in statements:
        while class_stack and start_depth < class_stack[-1][0]:
            close_scope(class_stack.pop())
        if (CLASS_OPEN_RE.match(code) and not ENUM_CLASS_RE.match(code)
                and code.rstrip().endswith("{")):
            class_stack.append((start_depth + 1, [], set()))
            continue
        if class_stack and start_depth == class_stack[-1][0]:
            mm = MUTEX_MEMBER_RE.search(code)
            if mm:
                class_stack[-1][2].add(mm.group(1))
            elif code.endswith(";"):
                class_stack[-1][1].append((lineno, code, raws))
    while class_stack:
        close_scope(class_stack.pop())
    out.extend(findings)


# --------------------------------------------------------------------------
# Rule: header-guard
# --------------------------------------------------------------------------

def canonical_guard(rel: str) -> str:
    # src/core/rng.h -> VALENTINE_CORE_RNG_H_ ; files outside src/ keep
    # their top-level dir: tests/foo.h -> VALENTINE_TESTS_FOO_H_.
    parts = Path(rel).with_suffix("").parts
    if parts[0] == "src":
        parts = parts[1:]
    body = "_".join(p.upper().replace("-", "_").replace(".", "_") for p in parts)
    return f"VALENTINE_{body}_H_"


def check_header_guard(path: Path, rel: str, text: str, out: list):
    if path.suffix != ".h":
        return
    expected = canonical_guard(rel)
    ifndef = re.search(r"^#ifndef\s+(\w+)\s*$", text, re.MULTILINE)
    define = re.search(r"^#define\s+(\w+)\s*$", text, re.MULTILINE)
    if not ifndef or not define:
        out.append(Violation(path, 1, "header-guard",
                             f"missing include guard (expected {expected})"))
        return
    if ifndef.group(1) != expected or define.group(1) != expected:
        lineno = text[:ifndef.start()].count("\n") + 1
        out.append(Violation(
            path, lineno, "header-guard",
            f"guard '{ifndef.group(1)}' should be '{expected}'"))


# --------------------------------------------------------------------------
# Rule: include-hygiene
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^>"]+)[>"]')


def check_include_hygiene(path: Path, rel: str, text: str,
                          project_headers: set, out: list):
    first_include = None
    for lineno, raw, _ in iter_code_lines(text):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        style, target = m.group(1), m.group(2)
        if first_include is None:
            first_include = (lineno, target)
        if target == "bits/stdc++.h":
            if not allowed(raw, "include-hygiene"):
                out.append(Violation(
                    path, lineno, "include-hygiene",
                    "<bits/stdc++.h> is non-portable and hides real "
                    "dependencies; include what you use"))
            continue
        if style == "<" and target in project_headers:
            if not allowed(raw, "include-hygiene"):
                out.append(Violation(
                    path, lineno, "include-hygiene",
                    f'project header should be included as "{target}", '
                    f"not <{target}>"))
    # Own-header-first, for library implementation files only.
    if rel.startswith("src/") and path.suffix == ".cpp":
        own = str(Path(rel).with_suffix(".h").relative_to("src"))
        if own in project_headers and first_include and first_include[1] != own:
            out.append(Violation(
                path, first_include[0], "include-hygiene",
                f'first include of {Path(rel).name} should be its own header '
                f'"{own}" (proves the header is self-contained)'))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = ("forbidden-random", "unordered-iteration", "ignored-status",
         "header-guard", "include-hygiene", "wallclock-time",
         "pointer-cache-key", "naked-mutex", "guarded-by-coverage")


# Deliberately-violating fixtures for the lint self-test; never part of
# a default tree scan.
TESTDATA_DIR = REPO_ROOT / "tools" / "lint" / "testdata"


def gather_files(args_paths):
    if args_paths:
        files = []
        for p in args_paths:
            path = Path(p).resolve()
            if path.is_dir():
                files.extend(sorted(path.rglob("*")))
            else:
                files.append(path)
    else:
        files = []
        for d in DEFAULT_DIRS:
            root = REPO_ROOT / d
            if root.is_dir():
                files.extend(sorted(root.rglob("*")))
        files = [f for f in files if TESTDATA_DIR not in f.parents]
    return [f for f in files if f.suffix in CPP_SUFFIXES and f.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: repo tree)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--pretend-rel", metavar="REL",
        help="lint the single given file as if it lived at repo-relative "
             "path REL (the self-test uses this to run fixtures through "
             "path-scoped rules)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    files = gather_files(args.paths)
    if not files:
        print("valentine_lint: no C++ files to lint", file=sys.stderr)
        return 2
    if args.pretend_rel and len(files) != 1:
        print("valentine_lint: --pretend-rel requires exactly one file",
              file=sys.stderr)
        return 2

    # Status-returning names and project-header paths come from the full
    # src/ tree even when linting a subset, so single-file runs see the
    # same rule surface as full runs.
    src_headers = sorted((REPO_ROOT / "src").rglob("*.h"))
    status_fns = collect_status_functions(src_headers)
    project_headers = {
        str(h.relative_to(REPO_ROOT / "src")) for h in src_headers}

    violations = []
    for path in files:
        if args.pretend_rel:
            rel = args.pretend_rel
        else:
            try:
                rel = str(path.relative_to(REPO_ROOT))
            except ValueError:
                rel = str(path)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"valentine_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        check_forbidden_random(path, rel, text, violations)
        check_unordered_iteration(path, rel, text, violations)
        check_ignored_status(path, rel, text, status_fns, violations)
        check_header_guard(path, rel, text, violations)
        check_include_hygiene(path, rel, text, project_headers, violations)
        check_wallclock_time(path, rel, text, violations)
        check_pointer_cache_key(path, rel, text, violations)
        check_naked_mutex(path, rel, text, violations)
        check_guarded_by_coverage(path, rel, text, violations)

    for v in violations:
        print(v)
    if violations:
        print(f"valentine_lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"valentine_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
