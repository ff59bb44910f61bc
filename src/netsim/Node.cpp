#include "netsim/Node.h"

#include <stdexcept>

namespace vg::net {

namespace {

/// Owns an in-flight packet parked in the simulation arena (or on the heap in
/// heap mode). Move-only; frees the slot whether or not delivery ever fires,
/// so packets pending at teardown don't leak their out-of-arena members.
class FlightSlot {
 public:
  FlightSlot(sim::Arena* arena, Packet&& p)
      : arena_(arena), slot_(sim::arena_new<Packet>(arena, std::move(p))) {}
  FlightSlot(FlightSlot&& o) noexcept : arena_(o.arena_), slot_(o.slot_) {
    o.slot_ = nullptr;
  }
  FlightSlot(const FlightSlot&) = delete;
  FlightSlot& operator=(const FlightSlot&) = delete;
  FlightSlot& operator=(FlightSlot&&) = delete;
  ~FlightSlot() { sim::arena_delete(arena_, slot_); }

  Packet&& take() && { return std::move(*slot_); }

 private:
  sim::Arena* arena_;
  Packet* slot_;
};

}  // namespace

Link& Network::add_link(NetNode& a, NetNode& b, sim::Duration latency,
                        sim::Duration jitter, double loss_rate) {
  links_.push_back(
      std::make_unique<Link>(*this, a, b, latency, jitter, loss_rate));
  return *links_.back();
}

Link::Link(Network& net, NetNode& a, NetNode& b, sim::Duration latency,
           sim::Duration jitter, double loss_rate)
    : net_(net),
      a_(&a),
      b_(&b),
      latency_(latency),
      jitter_(jitter),
      loss_rate_(loss_rate),
      jitter_rng_(net.sim().rng("net.link.jitter")),
      loss_rng_(net.sim().rng("net.link.loss")),
      burst_rng_(net.sim().rng("net.link.burst")) {}

NetNode& Link::peer_of(const NetNode& n) const {
  if (&n == a_) return *b_;
  if (&n == b_) return *a_;
  throw std::logic_error{"Link::peer_of: node not attached to this link"};
}

void Link::add_flap(sim::TimePoint start, sim::TimePoint end) {
  if (end < start) throw std::invalid_argument{"Link::add_flap: end < start"};
  flaps_.push_back(FlapWindow{start, end});
}

void Link::add_burst_loss(sim::TimePoint start, sim::TimePoint end,
                          GilbertElliott params) {
  if (end < start) {
    throw std::invalid_argument{"Link::add_burst_loss: end < start"};
  }
  bursts_.push_back(BurstWindow{start, end, params, false});
}

void Link::add_latency_spike(sim::TimePoint start, sim::TimePoint end,
                             sim::Duration extra) {
  if (end < start) {
    throw std::invalid_argument{"Link::add_latency_spike: end < start"};
  }
  spikes_.push_back(SpikeWindow{start, end, extra});
}

bool Link::fault_consumes(sim::TimePoint now, sim::Duration& extra) {
  for (const FlapWindow& w : flaps_) {
    if (now >= w.start && now < w.end) {
      ++dropped_;
      ++flap_dropped_;
      return true;
    }
  }
  for (BurstWindow& w : bursts_) {
    if (now < w.start || now >= w.end) continue;
    if (w.bad) {
      if (burst_rng_.chance(w.params.p_exit_bad)) w.bad = false;
    } else if (burst_rng_.chance(w.params.p_enter_bad)) {
      w.bad = true;
    }
    const double loss = w.bad ? w.params.loss_bad : w.params.loss_good;
    if (loss > 0.0 && burst_rng_.chance(loss)) {
      ++dropped_;
      ++burst_dropped_;
      return true;
    }
  }
  for (const SpikeWindow& w : spikes_) {
    if (now >= w.start && now < w.end) extra += w.extra;
  }
  return false;
}

void Link::send_from(NetNode& sender, Packet p) {
  if (!connects(sender)) {
    throw std::logic_error{"Link::send_from: sender not attached"};
  }
  if (p.id == 0) p.id = net_.next_packet_id();

  sim::Duration fault_extra{0};
  if ((!flaps_.empty() || !bursts_.empty() || !spikes_.empty()) &&
      fault_consumes(net_.sim().now(), fault_extra)) {
    return;
  }

  if (loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_)) {
    ++dropped_;
    return;
  }

  sim::Duration d = latency_ + fault_extra;
  if (jitter_.ns() > 0) {
    d += sim::Duration{jitter_rng_.uniform_int(-jitter_.ns(), jitter_.ns())};
  }
  if (d.ns() < 0) d = sim::Duration{0};

  sim::TimePoint when = net_.sim().now() + d;
  sim::TimePoint& last = (&sender == a_) ? last_delivery_ab_ : last_delivery_ba_;
  if (when < last) when = last;  // keep per-direction FIFO ordering
  last = when;

  NetNode& dst = peer_of(sender);
  // The in-flight packet parks in an arena slot; the delivery callback then
  // captures four words (32 bytes), which fits the event queue's inline
  // callback buffer — one hop costs zero global allocations instead of a
  // heap-boxed closure holding the whole Packet. FlightSlot owns the slot so
  // the Packet is destroyed even when the simulation tears down with the
  // delivery still pending.
  net_.sim().at(when, [this, &dst,
                       fs = FlightSlot{net_.sim().arena_ptr(), std::move(p)}]() mutable {
    dst.receive(std::move(fs).take(), *this);
  });
}

}  // namespace vg::net
