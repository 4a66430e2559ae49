// Open-loop workload driver for the multi-tenant regime.
//
// A SubmissionStream is a list of (arrival time, application) pairs whose
// job/stage/task ids and RDD cache keys have been remapped into disjoint
// namespaces (WorkloadBuilder numbers every application from zero, so two
// concurrently running applications would otherwise collide in the task
// scheduler's stage table and in the executors' block caches).
//
// make_poisson_stream generates arrivals open-loop: exponential
// inter-arrival times at a fixed rate, workloads drawn from a mix (default:
// the paper's Table III set), round-robined across N tenant pools. All
// randomness flows from one seeded Rng, so a (config, seed) pair fully
// determines the stream — and therefore the whole run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/job.hpp"

namespace rupam {

/// One application plus the simulated time its driver connects.
struct TimedSubmission {
  SimTime at = 0.0;
  Application app;
};

class SubmissionStream {
 public:
  /// Append `app` arriving at `at` (seconds from run start), billed to
  /// `pool`. Remaps the application's ids past every earlier submission and
  /// prefixes its cache keys with a per-submission tag so same-workload
  /// tenants do not share cached RDDs.
  void add(SimTime at, Application app, const std::string& pool = "");

  const std::vector<TimedSubmission>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  std::vector<TimedSubmission> items_;
  JobId next_job_ = 0;
  StageId next_stage_ = 0;
  TaskId next_task_ = 0;
};

/// Most applications a run or sweep spec may expect to draw (rate x
/// duration, unless a sweep caps them with max_apps): every drawn
/// application is built before the run starts, so an unbounded horizon
/// would only end when memory does.
inline constexpr double kMaxExpectedArrivals = 10000.0;

struct ArrivalConfig {
  /// Mean application arrival rate (apps per simulated second).
  double rate = 0.05;
  /// Generation horizon: arrivals are drawn until this time.
  SimTime duration = 600.0;
  /// Tenant pools; arrival k lands in pool "tenant<k mod tenants>".
  int tenants = 2;
  std::uint64_t seed = 1;
  /// Override per-workload iteration counts (0 = preset default).
  int iterations_override = 0;
  /// Workload short names to draw from; empty = all of Table III.
  std::vector<std::string> mix;
  /// Hard cap on generated applications (0 = unlimited within duration).
  std::size_t max_apps = 0;
  /// Diurnal load shape: instantaneous rate follows
  ///   rate * (1 + diurnal_amplitude * sin(2*pi*t / diurnal_period)),
  /// sampled by thinning. Amplitude 0 (the default) keeps the plain
  /// Poisson draw sequence byte-identical; amplitude must stay in [0, 1].
  double diurnal_amplitude = 0.0;
  SimTime diurnal_period = 120.0;
};

/// Draw an open-loop Poisson arrival process over the workload mix.
SubmissionStream make_poisson_stream(const ArrivalConfig& config,
                                     const std::vector<NodeId>& nodes);

/// Same, but appending to an existing stream — lets a harness submit
/// hand-built applications (e.g. a batch job at t=0) ahead of the drawn
/// arrivals, which matters under FIFO: cross-job priority follows job ids,
/// i.e. the order submissions were added.
void append_poisson_arrivals(SubmissionStream& stream, const ArrivalConfig& config,
                             const std::vector<NodeId>& nodes);

}  // namespace rupam
