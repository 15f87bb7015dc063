#!/usr/bin/env python3
"""Self-test for valentine_lint.

The linter guards the suite's byte-identity contract, so it needs its own
regression net: a rule that silently stops firing is worse than no rule.
Each case runs valentine_lint.main() in-process against a deliberately
violating fixture (via --pretend-rel, so path-scoped rules see the path
they are scoped to) and asserts both the exit status and the rule id in
the output. Exit status: 0 all cases pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import valentine_lint  # noqa: E402

TESTDATA = Path(__file__).resolve().parent / "testdata"

FAILURES = []


def run_lint(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = valentine_lint.main(argv)
    return status, out.getvalue() + err.getvalue()


def expect(name, argv, want_status, want_substring=None):
    status, output = run_lint(argv)
    if status != want_status:
        FAILURES.append(f"{name}: exit {status}, wanted {want_status}\n"
                        f"{output}")
        return
    if want_substring and want_substring not in output:
        FAILURES.append(f"{name}: output lacks {want_substring!r}\n{output}")


def main() -> int:
    fixture = str(TESTDATA / "fuzzy_jaccard_hash_order.cpp")

    # The bug class this PR fixed: leftover emission by unordered_map
    # iteration inside src/text/ must be flagged...
    expect("old-fuzzyjaccard-pattern-flagged",
           ["--pretend-rel", "src/text/string_similarity.cpp", fixture],
           1, "unordered-iteration")
    # ...and in the other order-sensitive trees.
    expect("flagged-under-matchers",
           ["--pretend-rel", "src/matchers/some_matcher.cpp", fixture],
           1, "unordered-iteration")
    expect("flagged-under-stats",
           ["--pretend-rel", "src/stats/some_stat.cpp", fixture],
           1, "unordered-iteration")
    expect("flagged-under-discovery",
           ["--pretend-rel", "src/discovery/engine_helper.cpp", fixture],
           1, "unordered-iteration")
    expect("flagged-under-knowledge",
           ["--pretend-rel", "src/knowledge/thesaurus_helper.cpp", fixture],
           1, "unordered-iteration")
    # src/serve/ serializes responses whose bytes must match direct
    # engine calls, so it sits in the order-sensitive scope too.
    expect("flagged-under-serve",
           ["--pretend-rel", "src/serve/responder.cpp", fixture],
           1, "unordered-iteration")

    # src/obs/ serializes traces, op counters, and Prometheus text whose
    # bytes must be run-stable, so it is order-sensitive too (the
    # opcount/metrics surfacing paths live here).
    expect("flagged-under-obs",
           ["--pretend-rel", "src/obs/opcount_export.cpp", fixture],
           1, "unordered-iteration")

    # Outside the order-sensitive scope the same code is legal (hash
    # order feeding a set/count is fine; the rule targets ranked paths).
    expect("ignored-outside-scope",
           ["--pretend-rel", "src/harness/report_helper.cpp", fixture], 0)

    # Pointer-keyed caches are rejected in src/ library code; the one
    # lint:allow'd line in the fixture must not count, hence exactly 3.
    pointer_fixture = str(TESTDATA / "pointer_keyed_cache.cpp")
    expect("pointer-cache-key-flagged",
           ["--pretend-rel", "src/harness/prepared_registry.cpp",
            pointer_fixture],
           1, "pointer-cache-key")
    expect("pointer-cache-key-allow-respected",
           ["--pretend-rel", "src/harness/prepared_registry.cpp",
            pointer_fixture],
           1, "3 violation(s)")
    # No file in src/ is exempt, src/stats/ included.
    expect("pointer-cache-key-no-exemption",
           ["--pretend-rel", "src/stats/minhash.cpp",
            pointer_fixture],
           1, "3 violation(s)")

    # Raw steady_clock::now() reads bypass the injectable Clock: flagged
    # in ordinary src/ library code, with the lint:allow'd read excluded
    # (hence exactly 2 findings)...
    clock_fixture = str(TESTDATA / "raw_steady_clock.cpp")
    expect("raw-steady-clock-flagged",
           ["--pretend-rel", "src/harness/timing_helper.cpp", clock_fixture],
           1, "wallclock-time")
    expect("raw-steady-clock-allow-respected",
           ["--pretend-rel", "src/harness/timing_helper.cpp", clock_fixture],
           1, "2 violation(s)")
    # ...but sanctioned inside the Clock abstraction and the Deadline
    # machinery (which deliberately stays on the real steady clock).
    expect("raw-steady-clock-obs-exempt",
           ["--pretend-rel", "src/obs/clock.cpp", clock_fixture], 0)
    expect("raw-steady-clock-deadline-exempt",
           ["--pretend-rel", "src/core/deadline.cpp", clock_fixture], 0)
    # The serving event loop gets no pass either: request latency is
    # observed by the telemetry spine on the injectable clock.
    expect("raw-steady-clock-serve-event-loop-not-exempt",
           ["--pretend-rel", "src/serve/server.cpp", clock_fixture],
           1, "wallclock-time")
    expect("raw-steady-clock-serve-service-not-exempt",
           ["--pretend-rel", "src/serve/service.cpp", clock_fixture],
           1, "wallclock-time")
    # The request-telemetry spine measures handler time on the
    # injectable clock by contract (byte-stable fake-clock access logs);
    # it must never inherit the event loop's steady-clock pass.
    expect("raw-steady-clock-serve-telemetry-not-exempt",
           ["--pretend-rel", "src/serve/telemetry.cpp", clock_fixture],
           1, "wallclock-time")
    # Outside src/ the rule does not apply at all.
    expect("raw-steady-clock-out-of-scope",
           ["--pretend-rel", "tools/bench_kernels/bench_kernels.cpp",
            clock_fixture], 0)

    # Raw std::mutex / std::lock_guard in src/ library code bypass the
    # annotated valentine::Mutex layer: flagged everywhere in src/
    # except the wrapper itself, with the lint:allow'd lock_guard
    # excluded (hence exactly 4 findings: include, member, two guards).
    naked_fixture = str(TESTDATA / "naked_mutex.cpp")
    expect("naked-mutex-flagged",
           ["--pretend-rel", "src/obs/some_registry.cpp", naked_fixture],
           1, "naked-mutex")
    # The telemetry spine's access-log/ring mutex must come from the
    # annotated layer (it carries a lock rank the checker verifies).
    expect("naked-mutex-serve-telemetry-flagged",
           ["--pretend-rel", "src/serve/telemetry.cpp", naked_fixture],
           1, "naked-mutex")
    expect("naked-mutex-allow-respected",
           ["--pretend-rel", "src/obs/some_registry.cpp", naked_fixture],
           1, "4 violation(s)")
    # ...but src/core/mutex.* is the sanctioned home of the raw
    # primitives, and code outside src/ (tests, tools) is out of scope.
    expect("naked-mutex-wrapper-exempt",
           ["--pretend-rel", "src/core/mutex.cpp", naked_fixture], 0)
    expect("naked-mutex-out-of-scope",
           ["--pretend-rel", "tools/bench_kernels/bench_kernels.cpp",
            naked_fixture], 0)

    # Members sharing a class with a Mutex must declare GUARDED_BY or
    # opt out: exactly 2 findings — the annotated member, the
    # lint:allow'd immutable, the atomic, and the static constexpr are
    # all exempt, as is the multi-line declaration whose GUARDED_BY
    # sits on a continuation line.
    guarded_fixture = str(TESTDATA / "guarded_by_missing.cpp")
    expect("guarded-by-coverage-flagged",
           ["--pretend-rel", "src/stats/export_cache.cpp", guarded_fixture],
           1, "guarded-by-coverage")
    expect("guarded-by-coverage-exemptions-respected",
           ["--pretend-rel", "src/stats/export_cache.cpp", guarded_fixture],
           1, "2 violation(s)")
    # Outside src/ the heuristic does not apply (tests may build ad-hoc
    # scaffolding without annotations).
    expect("guarded-by-coverage-out-of-scope",
           ["--pretend-rel", "tests/export_cache_test.cpp",
            guarded_fixture], 0)

    # Fixtures never leak into a default tree scan: the real tree must
    # still lint clean with the deliberately bad file present.
    expect("default-tree-clean", [], 0)

    # Guard the guard: --pretend-rel refuses multi-file invocations.
    expect("pretend-rel-single-file",
           ["--pretend-rel", "src/text/x.cpp", fixture, fixture], 2)

    if FAILURES:
        for f in FAILURES:
            print(f"lint_selftest FAIL {f}", file=sys.stderr)
        return 1
    print("lint_selftest: OK (29 cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
