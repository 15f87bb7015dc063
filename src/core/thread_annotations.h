#ifndef VALENTINE_CORE_THREAD_ANNOTATIONS_H_
#define VALENTINE_CORE_THREAD_ANNOTATIONS_H_

/// \file thread_annotations.h
/// Clang thread-safety (capability) analysis macros.
///
/// The locking discipline of the shared-state subsystems (ArtifactCache,
/// MetricsRegistry, Tracer, OutcomeJournal, Cupid's memo cache,
/// fault-injection counters) used to be enforced only dynamically
/// — TSan runs and race-stress soaks. These macros make it a
/// compile-time proof: every mutex-guarded member is declared
/// GUARDED_BY its mutex, every locking function declares what it
/// ACQUIREs/RELEASEs/REQUIRES, and the `clang-thread-safety` preset
/// builds with `-Wthread-safety -Werror=thread-safety`, so an
/// unsynchronized access to guarded state fails the build instead of
/// waiting for a lucky interleaving.
///
/// On compilers without the attribute (GCC, MSVC) every macro expands
/// to nothing; annotated code is portable by construction
/// (tests/core_thread_annotations_test.cpp is the compile-test proving
/// the expansion is clean on both toolchains). Reference:
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define VALENTINE_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef VALENTINE_THREAD_ANNOTATION_
#define VALENTINE_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Marks a class as a capability (lockable): valentine::Mutex.
#define CAPABILITY(x) VALENTINE_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose lifetime equals a critical section:
/// valentine::MutexLock.
#define SCOPED_CAPABILITY VALENTINE_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a data member is protected by the given capability;
/// reads require the capability held (shared or exclusive), writes
/// require it exclusive.
#define GUARDED_BY(x) VALENTINE_THREAD_ANNOTATION_(guarded_by(x))

/// Like GUARDED_BY, for the data a pointer/smart-pointer member points
/// at (the pointer itself stays unguarded).
#define PT_GUARDED_BY(x) VALENTINE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares that the annotated function acquires the capability and
/// holds it on return (Mutex::Lock, MutexLock's constructor).
#define ACQUIRE(...) \
  VALENTINE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VALENTINE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Declares that the annotated function releases the capability
/// (Mutex::Unlock, MutexLock's destructor).
#define RELEASE(...) \
  VALENTINE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VALENTINE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Declares that callers must hold the capability (exclusively) before
/// calling the annotated function, which does not release it.
#define REQUIRES(...) \
  VALENTINE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VALENTINE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the capability — the annotated
/// function acquires it itself (every public method of the guarded
/// subsystems; this is what turns a recursive re-lock into a compile
/// error).
#define EXCLUDES(...) VALENTINE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Annotates a try-lock: acquires the capability iff the returned value
/// equals the first argument.
#define TRY_ACQUIRE(...) \
  VALENTINE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Asserts at runtime that the capability is held (no-op assertion for
/// the analysis; the analyzer then assumes it).
#define ASSERT_CAPABILITY(x) \
  VALENTINE_THREAD_ANNOTATION_(assert_capability(x))

/// Declares that a function returns a reference to the capability
/// guarding its result.
#define RETURN_CAPABILITY(x) VALENTINE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with
/// a comment explaining why the discipline cannot be expressed.
#define NO_THREAD_SAFETY_ANALYSIS \
  VALENTINE_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // VALENTINE_CORE_THREAD_ANNOTATIONS_H_
