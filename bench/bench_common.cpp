#include "bench_common.hpp"

#include <sys/resource.h>

#include <fstream>

#include "common/json_writer.hpp"

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

JsonReport::JsonReport(std::string name) : path_("BENCH_" + std::move(name) + ".json") {}

void JsonReport::add(const std::string& key, double value) {
  entries_.emplace_back(key, json_number(value));
}

void JsonReport::add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, json_quote(value));
}

void JsonReport::add_bool(const std::string& key, bool value) {
  entries_.emplace_back(key, value ? "true" : "false");
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
