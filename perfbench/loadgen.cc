#include "loadgen.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cpdg::perfbench {

ActivitySampler::ActivitySampler(const std::vector<graph::Event>& events) {
  CPDG_CHECK(!events.empty());
  endpoints_.reserve(2 * events.size());
  for (const graph::Event& e : events) {
    endpoints_.push_back(e.src);
    endpoints_.push_back(e.dst);
  }
  std::vector<graph::NodeId> nodes = endpoints_;
  std::sort(nodes.begin(), nodes.end());
  distinct_ = std::unique(nodes.begin(), nodes.end()) - nodes.begin();
}

graph::NodeId ActivitySampler::Sample(Rng* rng) const {
  return endpoints_[static_cast<size_t>(rng->NextBounded(endpoints_.size()))];
}

std::vector<int64_t> PoissonArrivalsUs(double rate_per_s, double seconds,
                                       Rng* rng) {
  CPDG_CHECK_GT(rate_per_s, 0.0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  const double horizon_us = seconds * 1e6;
  double t_us = 0.0;
  while (true) {
    t_us += -std::log(rng->NextUniform(1e-12, 1.0)) / rate_per_s * 1e6;
    if (t_us >= horizon_us) break;
    out.push_back(static_cast<int64_t>(t_us));
  }
  return out;
}

}  // namespace cpdg::perfbench
