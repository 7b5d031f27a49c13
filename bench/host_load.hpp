// How loaded the machine was while a bench ran, read only from /proc: the
// 1-minute load average when the run ends (/proc/loadavg) and the share of
// all CPU time over the run that the hypervisor stole from this machine
// (/proc/stat). Every BENCH_*.json writer prints it as its "host" object,
// so tools/bench_trend.py can set aside the timings of a file made on a
// loaded host. A value /proc does not give prints as null.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

namespace sitime::bench {

/// The aggregate "cpu" line of /proc/stat: all jiffies and stolen ones.
struct CpuJiffies {
  unsigned long long total = 0;
  unsigned long long steal = 0;
  bool valid = false;
};

inline CpuJiffies read_cpu_jiffies() {
  CpuJiffies jiffies;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return jiffies;
  // user nice system idle iowait irq softirq steal; the guest fields that
  // follow are already counted in user and nice.
  unsigned long long field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    jiffies.total += field;
    if (i == 7) {
      jiffies.steal = field;
      jiffies.valid = true;
    }
  }
  return jiffies;
}

/// Construct at the start of the run; print_json() at its end.
class HostLoad {
 public:
  HostLoad() : start_(read_cpu_jiffies()) {}

  /// Prints `  "host": {"load_avg_1m": L, "steal_share": S}` with no
  /// trailing comma or newline.
  void print_json() const {
    const CpuJiffies end = read_cpu_jiffies();
    std::ifstream loadavg("/proc/loadavg");
    double load = 0.0;
    std::printf("  \"host\": {\"load_avg_1m\": ");
    if (loadavg >> load)
      std::printf("%.2f", load);
    else
      std::printf("null");
    std::printf(", \"steal_share\": ");
    if (start_.valid && end.valid && end.total > start_.total)
      std::printf("%.4f", static_cast<double>(end.steal - start_.steal) /
                              static_cast<double>(end.total - start_.total));
    else
      std::printf("null");
    std::printf("}");
  }

 private:
  CpuJiffies start_;
};

}  // namespace sitime::bench
