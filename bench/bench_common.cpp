#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>

#include "common/json_writer.hpp"
#include "common/stats.hpp"

namespace rupam::bench {

void print_header(const std::string& artifact, const std::string& description) {
  std::cout << "==============================================================\n"
            << artifact << " — " << description << "\n"
            << "(RUPAM reproduction; simulated Hydra cluster — compare shapes,"
               " not absolute seconds)\n"
            << "==============================================================\n";
}

std::string pct(double fraction) { return format_fixed(fraction * 100.0, 1); }

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {
// Keeps the probe's result observable, so the kernel is not optimized away.
volatile std::uint64_t g_probe_sink = 0;
}  // namespace

void SpeedProbe::sample() {
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint32_t, std::uint64_t> tree;
  std::vector<std::uint64_t> heap;
  std::vector<std::unique_ptr<std::uint64_t>> boxes;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20000; ++i) {
    tree[static_cast<std::uint32_t>(next() % 65536)] += static_cast<std::uint64_t>(i);
    heap.push_back(next());
    std::push_heap(heap.begin(), heap.end());
    boxes.push_back(std::make_unique<std::uint64_t>(next()));
  }
  for (int i = 0; i < 40000; ++i) {
    auto it = tree.lower_bound(static_cast<std::uint32_t>(next() % 65536));
    if (it != tree.end()) {
      acc += it->second;
      tree.erase(it);
    }
    tree.emplace(static_cast<std::uint32_t>(next() % 65536), static_cast<std::uint64_t>(i));
    std::pop_heap(heap.begin(), heap.end());
    acc += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
    boxes[next() % boxes.size()] = std::make_unique<std::uint64_t>(acc);
  }
  std::vector<double> values(50000);
  for (double& v : values) v = static_cast<double>(next() % 1000003);
  std::sort(values.begin(), values.end());
  g_probe_sink = acc + static_cast<std::uint64_t>(values[values.size() / 2]);
  samples_.push_back(
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
}

double SpeedProbe::speed_ms() const { return percentile(samples_, 10.0); }

JsonReport::JsonReport(std::string name) : path_("BENCH_" + std::move(name) + ".json") {}

void JsonReport::add(const std::string& key, double value) {
  char buf[32];
  std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
  entries_.emplace_back(key, std::isfinite(value) ? std::string(buf, end.ptr) : "0");
}

void JsonReport::add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, json_quote(value));
}

void JsonReport::record_kernel(const KernelStats& stats) { kernel_ += stats; }

bool JsonReport::write() const {
  std::ofstream f(path_);
  if (!f) {
    std::cerr << "cannot write " << path_ << "\n";
    return false;
  }
  // Standard memory/allocation footer appended to every report: peak RSS
  // plus the kernel counters of the runs this bench measured and recorded
  // via record_kernel() (see simcore/kernel_stats.hpp).
  const KernelStats& ks = kernel_;
  std::vector<std::pair<std::string, std::string>> all = entries_;
  all.emplace_back("peak_rss_mib", json_number(peak_rss_mib()));
  all.emplace_back("sim_events_scheduled", json_number(static_cast<double>(ks.events_scheduled)));
  all.emplace_back("sim_events_executed", json_number(static_cast<double>(ks.events_executed)));
  all.emplace_back("sim_events_cancelled", json_number(static_cast<double>(ks.events_cancelled)));
  all.emplace_back("sim_arena_slot_allocs", json_number(static_cast<double>(ks.arena_slot_allocs)));
  all.emplace_back("sim_callback_heap_allocs",
                   json_number(static_cast<double>(ks.callback_heap_allocs)));
  double queue_allocs = static_cast<double>(ks.arena_slot_allocs + ks.callback_heap_allocs);
  all.emplace_back("sim_queue_allocs_per_event",
                   json_number(ks.events_executed > 0
                                   ? queue_allocs / static_cast<double>(ks.events_executed)
                                   : 0.0));
  f << "{\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    f << "  " << json_quote(all[i].first) << ": " << all[i].second
      << (i + 1 < all.size() ? "," : "") << "\n";
  }
  f << "}\n";
  std::cout << "[json] wrote " << path_ << "\n";
  return f.good();
}

}  // namespace rupam::bench
