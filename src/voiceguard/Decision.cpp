#include "voiceguard/Decision.h"

#include "voiceguard/FloorTracker.h"

namespace vg::guard {

void DecisionModule::query(Verdict verdict) {
  ++queries_;
  const sim::TimePoint start = sim_.now();
  do_query([this, start, verdict = std::move(verdict)](bool legit) {
    latencies_.push_back((sim_.now() - start).seconds());
    if (legit) {
      ++legit_;
    } else {
      ++malicious_;
    }
    verdict(legit);
  });
}

void CompositeDecisionModule::do_query(Verdict verdict) {
  if (subs_.empty()) {
    // No evidence sources: fail closed, like the RSSI module with no devices.
    sim_.after(sim::milliseconds(1),
               [verdict = std::move(verdict)] { verdict(false); });
    return;
  }
  struct QueryState {
    Verdict verdict;
    std::size_t outstanding;
    bool concluded{false};
  };
  auto state = std::make_shared<QueryState>();
  state->verdict = std::move(verdict);
  state->outstanding = subs_.size();
  const Policy policy = policy_;

  for (DecisionModule* sub : subs_) {
    sub->query([state, policy](bool legit) {
      if (state->concluded) return;
      --state->outstanding;
      const bool decisive = (policy == Policy::kAny) ? legit : !legit;
      if (decisive || state->outstanding == 0) {
        // On exhaustion every answer was non-decisive (all-negative for kAny,
        // all-positive for kAll), so the last sub-verdict IS the aggregate.
        state->concluded = true;
        state->verdict(legit);
      }
    });
  }
}

RssiDecisionModule::RssiDecisionModule(sim::Simulation& sim,
                                       home::FcmService& fcm,
                                       const radio::BluetoothBeacon& beacon,
                                       Options opts)
    : DecisionModule(sim),
      fcm_(fcm),
      beacon_(beacon),
      opts_(opts),
      backoff_rng_(sim.rng("guard.fcm.backoff")) {}

void RssiDecisionModule::register_device(home::MobileDevice& device,
                                         double threshold,
                                         FloorTracker* floor) {
  const std::size_t idx = devices_.size();
  devices_.push_back(Registered{&device, threshold, floor});

  // The companion app: an FCM push "measure:<query-id>" wakes it in the
  // background; it measures the speaker's RSSI and reports to us.
  fcm_.register_device(
      device.fcm_token(), [this, idx](const std::string& payload) {
        if (payload.rfind("measure:", 0) != 0) return;
        const std::uint64_t qid = std::stoull(payload.substr(8));
        devices_[idx].device->handle_measure_request(
            beacon_, [this, qid, idx](double rssi) {
              on_report(qid, idx, rssi, /*timed_out=*/false);
            });
      });
}

void RssiDecisionModule::set_threshold(const std::string& device_name,
                                       double threshold) {
  for (auto& d : devices_) {
    if (d.device->name() == device_name) d.threshold = threshold;
  }
}

void RssiDecisionModule::do_query(Verdict verdict) {
  const std::uint64_t qid = next_query_id_++;
  PendingQuery& q = pending_[qid];
  q.verdict = std::move(verdict);
  q.outstanding = devices_.size();
  q.reported.assign(devices_.size(), false);
  q.record.when = sim_.now();

  if (devices_.empty()) {
    // No registered owner device: fail closed (cannot confirm proximity).
    finish(qid, false);
    return;
  }

  for (const auto& d : devices_) {
    fcm_.push(d.device->fcm_token(), "measure:" + std::to_string(qid));
  }
  q.timeout =
      sim_.after(opts_.device_timeout, [this, qid] { on_timeout(qid); });
  if (opts_.fcm_max_retries > 0 && !retry_budget_spent()) {
    q.retries_left = opts_.fcm_max_retries;
    q.retry_wait = opts_.fcm_retry_initial;
    q.retry_timer =
        sim_.after(retry_delay(q.retry_wait), [this, qid] { on_retry(qid); });
  }
}

sim::Duration RssiDecisionModule::retry_delay(sim::Duration base) {
  if (opts_.fcm_retry_jitter <= 0.0) return base;
  const double u = backoff_rng_.uniform(0.0, opts_.fcm_retry_jitter);
  return sim::Duration{base.ns() - static_cast<std::int64_t>(
                                       static_cast<double>(base.ns()) * u)};
}

void RssiDecisionModule::on_timeout(std::uint64_t qid) {
  auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  PendingQuery& q = it->second;
  // Whoever has not reported is treated as "not nearby".
  for (std::size_t i = 0; i < q.reported.size(); ++i) {
    if (!q.reported[i]) {
      q.record.reports.push_back(Report{devices_[i].device->name(), 0,
                                        devices_[i].threshold, true, true});
    }
  }
  finish(qid, false);
}

void RssiDecisionModule::on_retry(std::uint64_t qid) {
  auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  PendingQuery& q = it->second;
  // Re-push only to devices that have stayed silent — delivered pushes are
  // in flight or already answered; duplicating those would skew reports.
  for (std::size_t i = 0; i < q.reported.size(); ++i) {
    if (q.reported[i]) continue;
    if (retry_budget_spent()) break;  // fleet-wide retry-storm bound
    ++fcm_retries_;
    fcm_.push(devices_[i].device->fcm_token(),
              "measure:" + std::to_string(qid));
  }
  if (--q.retries_left > 0 && !retry_budget_spent()) {
    q.retry_wait = sim::Duration{q.retry_wait.ns() * 2};
    q.retry_timer =
        sim_.after(retry_delay(q.retry_wait), [this, qid] { on_retry(qid); });
  }
}

void RssiDecisionModule::on_report(std::uint64_t qid, std::size_t device_idx,
                                   double rssi, bool timed_out) {
  auto it = pending_.find(qid);
  if (it == pending_.end()) {
    // The query already concluded (verdict delivered, state freed); late
    // reports are counted and dropped.
    ++late_reports_;
    return;
  }
  PendingQuery& q = it->second;
  if (device_idx >= q.reported.size() || q.reported[device_idx]) return;
  q.reported[device_idx] = true;

  const Registered& d = devices_[device_idx];
  const bool floor_ok =
      (d.floor == nullptr) || d.floor->owner_on_speaker_floor();
  q.record.reports.push_back(Report{d.device->name(), rssi, d.threshold,
                                    floor_ok, timed_out});
  --q.outstanding;

  const bool nearby = !timed_out && rssi >= d.threshold && floor_ok;
  if (nearby) {
    // First positive wins: at least one legitimate user is near the speaker.
    finish(qid, true);
    return;
  }
  if (q.outstanding == 0) finish(qid, false);
}

void RssiDecisionModule::finish(std::uint64_t qid, bool legit) {
  auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  PendingQuery q = std::move(it->second);
  pending_.erase(it);
  sim_.cancel(q.timeout);
  sim_.cancel(q.retry_timer);
  q.record.legit = legit;
  history_.push_back(q.record);
  if (q.verdict) q.verdict(legit);
}

}  // namespace vg::guard
