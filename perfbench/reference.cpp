// The host-speed reference and CPU pinning that steady the end-to-end times.
//
// The 4-vCPU host these figures come from slows each vCPU by up to 1.8x for
// seconds at a time, independently per vCPU, while a neighbour contends for
// its caches (an ALU loop keeps its speed; a timer-heap-and-table loop
// does not). A run therefore pins itself to one CPU and times a fixed
// reference kernel on it right before and after every timed unit; each
// unit's wall time is scaled by kReferenceS over the mean of the two
// samples, so a slow phase of the host cancels while a change to the
// program does not.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// The reference kernel: a toy discrete-event loop with the simulator's mix
/// of work on memory of its own, allocated once, so neither the program's
/// heap nor its allocation pattern can change the kernel's speed. Each step
/// pops the earliest of 4096 timers from a binary heap, adds its time to a
/// pseudo-random slot of a 2 MiB table (the per-key state of a hash map)
/// and reschedules the timer. Returns a checksum of what it computed.
class EventLoop {
 public:
  EventLoop() : table_(1 << 18), heap_(4096) {}

  std::uint64_t run() {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = {i, static_cast<std::uint32_t>(i)};
    }
    std::fill(table_.begin(), table_.end(), 0);
    std::uint64_t x = 12345, sum = 0;
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      Event& e = heap_.back();
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      table_[(x >> 20) & (table_.size() - 1)] += e.first;
      e.first += ((x >> 40) % 1000) + 1;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      sum += e.second;
    }
    return sum + heap_.front().first + table_[x & (table_.size() - 1)];
  }

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  static constexpr int kSteps = 60000;
  std::vector<std::uint64_t> table_;
  std::vector<Event> heap_;
};

}  // namespace

double reference_sample() {
  // One pass brings the kernel's memory back into the caches the unit
  // before it evicted, so how much of the cache the program uses does not
  // move the timed pass. The checksum is a pure function of the kernel:
  // every pass of every run must give the same one.
  static EventLoop kernel;
  static const std::uint64_t kExpected = kernel.run();
  if (kernel.run() != kExpected) {
    throw std::runtime_error("reference kernel differs");
  }
  const auto t0 = Clock::now();
  const std::uint64_t sum = kernel.run();
  const double took = seconds_since(t0);
  if (sum != kExpected) throw std::runtime_error("reference kernel differs");
  return took;
}

double reference_scale(double before_s, double after_s) {
  return kReferenceS / (0.5 * (before_s + after_s));
}

namespace {

cpu_set_t g_wide;  ///< the CPUs this process may use, as it started
int g_cpu = -1;    ///< the CPU runs are pinned to, or -1 when not pinned

bool pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

}  // namespace

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof g_wide, &g_wide) != 0) return;
  if (pin_to(cpu)) g_cpu = cpu;
}

void run_unpinned(const std::function<void()>& fn) {
  if (g_cpu < 0) return fn();
  struct Repin {
    ~Repin() { pin_to(g_cpu); }
  } repin;
  sched_setaffinity(0, sizeof g_wide, &g_wide);
  fn();
}

}  // namespace perfbench
