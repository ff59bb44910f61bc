#include "home/Fcm.h"

#include <algorithm>
#include <stdexcept>

namespace vg::home {

sim::Duration FcmService::sample_latency() {
  const double secs =
      rng_.lognormal(opts_.latency_lognormal_mu, opts_.latency_lognormal_sigma);
  sim::Duration d = sim::from_seconds(secs);
  d = std::clamp(d, opts_.min_latency, opts_.max_latency);
  return d;
}

void FcmService::add_fault_window(sim::TimePoint start, sim::TimePoint end,
                                  sim::Duration extra_delay, double drop_prob) {
  if (end < start) {
    throw std::invalid_argument{"FcmService::add_fault_window: end < start"};
  }
  faults_.push_back(FaultWindow{start, end, extra_delay, drop_prob});
}

void FcmService::push(const std::string& token, std::string payload) {
  ++pushes_;
  auto it = devices_.find(token);
  if (it == devices_.end()) return;
  sim::Duration extra{0};
  const sim::TimePoint now = sim_.now();
  for (const FaultWindow& w : faults_) {
    if (now < w.start || now >= w.end) continue;
    if (w.drop_prob > 0.0 && fault_rng_.chance(w.drop_prob)) {
      ++dropped_;
      return;
    }
    extra += w.extra_delay;
  }
  const sim::Duration latency = sample_latency() + extra;
  // Copy the handler: the registration may change while the push is in
  // flight, and the in-flight push was already addressed.
  Handler h = it->second;
  sim_.after(latency, [h = std::move(h), payload = std::move(payload)] {
    h(payload);
  });
}

}  // namespace vg::home
