// Deterministic, build-time-gated fault injection for the error-path
// tests. Production binaries compile the poll sites down to `false`
// unless CMake defines SITIME_FAULT_INJECTION (option SITIME_FAULTS,
// default ON so the checked-in test suites exercise the paths).
//
// Eight injection points cover the layers a request crosses:
//   parse           AnalysisService request parsing
//   decompose       core::run_decompose_phase entry
//   sg_build        sg::build_state_graph entry
//   cache_insert    AnalysisService::finish_run retention
//   transport_write SocketChannel::write_line (drops the response,
//                   simulating a client that vanished mid-write)
//   worker_stall    svc::Server worker_loop before the handler runs
//                   (sleeps ~40 ms, simulating a slow analysis pinning a
//                   shared worker — the deterministic "plug" behind the
//                   queue-timing tests)
//   disk_store_write  svc::DiskStore::save (the spill is dropped and
//                   counted as a write error; the in-memory entry and
//                   the response are untouched — persistence is always
//                   best-effort)
//   disk_store_load  svc::DiskStore::read_file (the boot-time load of
//                   one store file fails as if the file were
//                   unreadable; the file is treated as corrupt and the
//                   design falls back to a cold run)
//
// The injector is a process-wide singleton but INERT until a test arms
// it, so suites that don't opt in are untouched even when the hooks are
// compiled in (this is what lets a CI seed sweep re-run the whole test
// binaries safely). Tests arm it through the RAII FaultScope:
//
//   { svc::FaultScope storm(seed, /*period=*/4);  // seeded: every point
//     ...                                         // fires pseudo-randomly
//   }                                             // ~1/period per poll
//   { svc::FaultScope one(svc::FaultPoint::parse, /*nth=*/1);
//     ...  // exactly the first parse poll fires, nothing else
//   }
//
// Determinism: seeded mode hashes (seed, point, per-point poll counter)
// with splitmix64, so a fixed seed fires at the same polls on every run
// of the same single-threaded sequence; arm_* resets the per-point
// counters so each FaultScope starts from a clean slate.
#pragma once

#include <atomic>
#include <cstdint>

#include "base/error.hpp"

namespace sitime::base {

// The values are fixed: the seeded mode hashes them, so a point keeps its
// fire schedule across releases. New points take fresh values and a
// retired point's value stays reserved (4 was gate_cache_insert, 7 was
// decomp_cache_insert).
enum class FaultPoint : int {
  parse = 0,
  decompose = 1,
  sg_build = 2,
  cache_insert = 3,
  transport_write = 5,
  worker_stall = 6,
  disk_store_write = 8,
  disk_store_load = 9,
};
/// One past the largest FaultPoint value (the injector's slot count).
inline constexpr int kFaultPointCount = 10;

/// Thrown by throwing injection points. Deliberately NOT a subclass of
/// any analysis error: core/expand.cpp rethrows it past the OR-causality
/// fallback so an injected fault can never be misread as a timing
/// constraint.
class FaultInjectedError : public Error {
 public:
  using Error::Error;
};

const char* fault_point_name(FaultPoint point);

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Seeded mode: every point fires whenever
  /// splitmix64(seed ^ point ^ poll_index) % period == 0.
  /// period <= 1 fires on every poll.
  void arm_seeded(std::uint64_t seed, std::uint64_t period);

  /// One-shot mode: exactly the nth poll (1-based) of `point` fires;
  /// all other points stay inert.
  void arm_nth(FaultPoint point, std::uint64_t nth);

  void disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// The hot-path check behind the fault_fires() inline gate: counts the
  /// poll and decides whether this one fires.
  bool should_fire(FaultPoint point);

  /// Polls seen / faults fired at a point since the last arm_* call.
  std::uint64_t polls(FaultPoint point) const;
  std::uint64_t fired(FaultPoint point) const;

 private:
  FaultInjector() = default;

  struct Slot {
    std::atomic<std::uint64_t> polls{0};
    std::atomic<std::uint64_t> fired{0};
    std::atomic<std::uint64_t> nth{0};  // one-shot target; 0 = not targeted
  };

  void reset_slots();

  std::atomic<bool> armed_{false};
  std::atomic<bool> seeded_{false};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> period_{1};
  Slot slots_[kFaultPointCount];
};

/// Throws FaultInjectedError naming the point. Split out of the header
/// so the throw stays cold.
[[noreturn]] void injected_failure(FaultPoint point);

/// The poll sites call this. With fault injection compiled out it is a
/// constant false and the whole branch folds away.
inline bool fault_fires(FaultPoint point) {
#ifdef SITIME_FAULT_INJECTION
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.armed()) return false;
  return injector.should_fire(point);
#else
  (void)point;
  return false;
#endif
}

/// True when the poll sites are compiled in (tests skip themselves
/// otherwise).
constexpr bool fault_injection_compiled_in() {
#ifdef SITIME_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

/// RAII arming for tests: arms on construction, disarms on destruction.
class FaultScope {
 public:
  FaultScope(std::uint64_t seed, std::uint64_t period) {
    FaultInjector::instance().arm_seeded(seed, period);
  }
  FaultScope(FaultPoint point, std::uint64_t nth) {
    FaultInjector::instance().arm_nth(point, nth);
  }
  ~FaultScope() { FaultInjector::instance().disarm(); }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

/// SITIME_FAULT_SEED from the environment (the CI sweep lane sets it),
/// or `fallback` when unset/unparseable. Only tests that explicitly ask
/// for the environment seed are affected by the variable.
std::uint64_t fault_env_seed(std::uint64_t fallback);

}  // namespace sitime::base
