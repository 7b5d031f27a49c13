#include "base/fault.hpp"

#include <cstdlib>
#include <string>

namespace sitime::base {

namespace {

/// splitmix64: tiny, well-mixed, and stateless — ideal for hashing the
/// (seed, point, poll index) triple into a fire/no-fire decision.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_point_name(FaultPoint point) {
  switch (point) {
    case FaultPoint::parse: return "parse";
    case FaultPoint::decompose: return "decompose";
    case FaultPoint::sg_build: return "sg_build";
    case FaultPoint::cache_insert: return "cache_insert";
    case FaultPoint::transport_write: return "transport_write";
    case FaultPoint::worker_stall: return "worker_stall";
    case FaultPoint::disk_store_write: return "disk_store_write";
    case FaultPoint::disk_store_load: return "disk_store_load";
  }
  return "unknown";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::reset_slots() {
  for (Slot& slot : slots_) {
    slot.polls.store(0, std::memory_order_relaxed);
    slot.fired.store(0, std::memory_order_relaxed);
    slot.nth.store(0, std::memory_order_relaxed);
  }
}

void FaultInjector::arm_seeded(std::uint64_t seed, std::uint64_t period) {
  armed_.store(false, std::memory_order_release);
  reset_slots();
  seed_.store(seed, std::memory_order_relaxed);
  period_.store(period == 0 ? 1 : period, std::memory_order_relaxed);
  seeded_.store(true, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::arm_nth(FaultPoint point, std::uint64_t nth) {
  armed_.store(false, std::memory_order_release);
  reset_slots();
  seeded_.store(false, std::memory_order_relaxed);
  slots_[static_cast<int>(point)].nth.store(nth == 0 ? 1 : nth,
                                            std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

bool FaultInjector::should_fire(FaultPoint point) {
  Slot& slot = slots_[static_cast<int>(point)];
  const std::uint64_t index =
      slot.polls.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  if (seeded_.load(std::memory_order_relaxed)) {
    const std::uint64_t mixed =
        splitmix64(seed_.load(std::memory_order_relaxed) ^
                   (static_cast<std::uint64_t>(point) << 32) ^ index);
    fire = mixed % period_.load(std::memory_order_relaxed) == 0;
  } else {
    fire = slot.nth.load(std::memory_order_relaxed) == index;
  }
  if (fire) slot.fired.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

std::uint64_t FaultInjector::polls(FaultPoint point) const {
  return slots_[static_cast<int>(point)].polls.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired(FaultPoint point) const {
  return slots_[static_cast<int>(point)].fired.load(
      std::memory_order_relaxed);
}

void injected_failure(FaultPoint point) {
  throw FaultInjectedError(std::string("injected fault: ") +
                           fault_point_name(point));
}

std::uint64_t fault_env_seed(std::uint64_t fallback) {
  const char* text = std::getenv("SITIME_FAULT_SEED");
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace sitime::base
