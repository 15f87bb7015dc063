#include "core/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace valentine {

namespace {

/// Deep-enough for any sane lock nesting; beyond it the tracker stops
/// checking rather than allocating (checking 65 simultaneously held
/// mutexes is not the bug class this guards).
constexpr size_t kMaxHeld = 64;

struct HeldEntry {
  const void* mutex;
  LockRank rank;
  const char* name;
};

struct ThreadHeld {
  HeldEntry entries[kMaxHeld];
  size_t count = 0;
};

ThreadHeld& Held() {
  thread_local ThreadHeld held;
  return held;
}

LockRankViolationHandler g_handler = nullptr;

void Report(const LockRankViolation& violation) {
  if (g_handler != nullptr) {
    g_handler(violation);
    return;
  }
  std::fprintf(
      stderr,
      "valentine lock-rank violation (%s): acquiring %s (%s, rank %d) "
      "while holding %s (%s, rank %d)\n",
      violation.kind == LockRankViolation::Kind::kSelfDeadlock
          ? "self-deadlock"
          : "rank inversion",
      violation.acquiring_name, LockRankName(violation.acquiring_rank),
      static_cast<int>(violation.acquiring_rank), violation.held_name,
      LockRankName(violation.held_rank),
      static_cast<int>(violation.held_rank));
  std::abort();
}

}  // namespace

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
    case LockRank::kServeAdmission:
      return "kServeAdmission";
    case LockRank::kServeServer:
      return "kServeServer";
    case LockRank::kServeRegistry:
      return "kServeRegistry";
    case LockRank::kServeTelemetry:
      return "kServeTelemetry";
    case LockRank::kJournal:
      return "kJournal";
    case LockRank::kFaultInjection:
      return "kFaultInjection";
    case LockRank::kArtifactStore:
      return "kArtifactStore";
    case LockRank::kArtifactCache:
      return "kArtifactCache";
    case LockRank::kPreparedSlot:
      return "kPreparedSlot";
    case LockRank::kCupidMemo:
      return "kCupidMemo";
    case LockRank::kMetrics:
      return "kMetrics";
    case LockRank::kTracer:
      return "kTracer";
  }
  return "<unknown rank>";
}

LockRankViolationHandler SetLockRankViolationHandler(
    LockRankViolationHandler handler) {
  LockRankViolationHandler previous = g_handler;
  g_handler = handler;
  return previous;
}

void LockRankTracker::CheckAcquire(const void* mutex, LockRank rank,
                                   const char* name) {
  const ThreadHeld& held = Held();
  for (size_t i = 0; i < held.count; ++i) {
    const HeldEntry& entry = held.entries[i];
    if (entry.mutex == mutex) {
      LockRankViolation violation;
      violation.kind = LockRankViolation::Kind::kSelfDeadlock;
      violation.acquiring = mutex;
      violation.acquiring_rank = rank;
      violation.acquiring_name = name;
      violation.held = entry.mutex;
      violation.held_rank = entry.rank;
      violation.held_name = entry.name;
      Report(violation);
      return;  // handler chose to continue; skip rank noise for this call
    }
  }
  if (rank == LockRank::kUnranked) return;
  for (size_t i = 0; i < held.count; ++i) {
    const HeldEntry& entry = held.entries[i];
    if (entry.rank != LockRank::kUnranked && entry.rank >= rank) {
      LockRankViolation violation;
      violation.kind = LockRankViolation::Kind::kRankInversion;
      violation.acquiring = mutex;
      violation.acquiring_rank = rank;
      violation.acquiring_name = name;
      violation.held = entry.mutex;
      violation.held_rank = entry.rank;
      violation.held_name = entry.name;
      Report(violation);
      return;
    }
  }
}

void LockRankTracker::Acquired(const void* mutex, LockRank rank,
                               const char* name) {
  ThreadHeld& held = Held();
  if (held.count >= kMaxHeld) return;
  held.entries[held.count++] = {mutex, rank, name};
}

void LockRankTracker::Released(const void* mutex) {
  ThreadHeld& held = Held();
  // Search from the top: releases are almost always LIFO.
  for (size_t i = held.count; i > 0; --i) {
    if (held.entries[i - 1].mutex == mutex) {
      for (size_t j = i - 1; j + 1 < held.count; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.count;
      return;
    }
  }
}

size_t LockRankTracker::HeldCount() { return Held().count; }

}  // namespace valentine
