// Seeded input generators of the serving workloads: query nodes drawn by
// their activity in the served graph, and Poisson arrival schedules. Both
// are pure functions of their inputs and seed, so the parent and a change
// under test receive identical traffic.
#ifndef CPDG_PERFBENCH_LOADGEN_H_
#define CPDG_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "graph/event.h"
#include "util/rng.h"

namespace cpdg::perfbench {

/// \brief Draws a node as an endpoint of a uniformly drawn event, so a node
/// is asked for as often as it interacts. The generator's Zipf item
/// popularity and its user activity therefore carry over to the queries,
/// and nodes without history are never drawn.
class ActivitySampler {
 public:
  explicit ActivitySampler(const std::vector<graph::Event>& events);

  graph::NodeId Sample(Rng* rng) const;
  /// Distinct nodes that can be drawn.
  int64_t distinct() const { return distinct_; }

 private:
  std::vector<graph::NodeId> endpoints_;
  int64_t distinct_ = 0;
};

/// \brief Arrival offsets (microseconds from the window start) of a Poisson
/// process at `rate_per_s` over `seconds`: exponential gaps, so the offered
/// stream is as bursty as independent clients are.
std::vector<int64_t> PoissonArrivalsUs(double rate_per_s, double seconds,
                                       Rng* rng);

}  // namespace cpdg::perfbench

#endif  // CPDG_PERFBENCH_LOADGEN_H_
