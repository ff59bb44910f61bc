#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/AvsServer.h"
#include "cloud/GoogleCloud.h"
#include "netsim/Dns.h"
#include "netsim/Router.h"

/// \file CloudFarm.h
/// Assembles the internet side of a testbed: the AVS server pool (one domain,
/// several IPs, occasional migration), six "other Amazon servers" for
/// signature discrimination, the Google backend, and a DNS server — all
/// attached to the home router over WAN-latency links.

namespace vg::cloud {

class CloudFarm {
 public:
  struct Options {
    std::string avs_domain = "avs-alexa-4-na.amazon.com";
    std::string google_domain = "www.google.com";
    int avs_ip_count = 3;
    int other_amazon_count = 6;
    sim::Duration wan_latency = sim::milliseconds(18);
    sim::Duration wan_jitter = sim::milliseconds(4);
    /// Mean interval between AVS IP migrations (exponential); 0 disables.
    sim::Duration avs_migration_mean = sim::hours(18);
    /// Options applied to every AVS server instance in the pool.
    AvsServerApp::Options avs{};
    GoogleCloudApp::Options google{};
  };

  CloudFarm(net::Network& net, net::Router& router)
      : CloudFarm(net, router, Options{}) {}
  CloudFarm(net::Network& net, net::Router& router, Options opts);

  [[nodiscard]] net::Endpoint dns_endpoint() const {
    return net::Endpoint{dns_host_->ip(), net::DnsServerApp::kPort};
  }
  net::DnsZone& zone() { return zone_; }

  [[nodiscard]] net::IpAddress current_avs_ip() const {
    return avs_hosts_[active_avs_]->ip();
  }
  [[nodiscard]] const std::string& avs_domain() const { return opts_.avs_domain; }
  [[nodiscard]] const std::string& google_domain() const {
    return opts_.google_domain;
  }
  [[nodiscard]] net::IpAddress google_ip() const { return google_host_->ip(); }

  [[nodiscard]] std::vector<net::IpAddress> other_amazon_ips() const;

  /// Force an AVS IP migration now (tests and the IP-tracking bench).
  void migrate_avs_now();

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Commands executed across all AVS IPs and Google, merged and time-sorted.
  [[nodiscard]] std::vector<ExecutedCommand> all_executed() const;

  [[nodiscard]] std::uint64_t total_sequence_violations() const;

  GoogleCloudApp& google_app() { return *google_app_; }
  AvsServerApp& avs_app(int i) { return *avs_apps_[i]; }
  [[nodiscard]] int avs_ip_count() const {
    return static_cast<int>(avs_hosts_.size());
  }

  /// Takes the whole AVS pool up or down (every IP at once); see
  /// AvsServerApp::set_available.
  void set_avs_available(bool available, bool rst_existing = false) {
    for (auto& app : avs_apps_) app->set_available(available, rst_existing);
  }
  /// Saturation control for the whole pool: every command processed while
  /// \p extra is non-zero takes that much longer (AvsServerApp brownout).
  void set_avs_extra_delay(sim::Duration extra) {
    for (auto& app : avs_apps_) app->set_extra_delay(extra);
  }
  [[nodiscard]] std::uint64_t total_browned_out() const {
    std::uint64_t n = 0;
    for (const auto& app : avs_apps_) n += app->browned_out();
    return n;
  }

  [[nodiscard]] std::uint64_t total_outage_refused() const {
    std::uint64_t n = 0;
    for (const auto& app : avs_apps_) n += app->outage_refused();
    return n;
  }
  /// When the pool first established a session at or after \p t, if it has.
  [[nodiscard]] std::optional<sim::TimePoint> first_avs_session_since(
      sim::TimePoint t) const {
    std::optional<sim::TimePoint> first;
    for (const auto& app : avs_apps_) {
      const std::optional<sim::TimePoint> at = app->first_session_since(t);
      if (at && (!first || *at < *first)) first = at;
    }
    return first;
  }
  [[nodiscard]] std::uint64_t total_sessions_killed() const {
    std::uint64_t n = 0;
    for (const auto& app : avs_apps_) n += app->sessions_killed();
    return n;
  }

 private:
  void schedule_migration();

  net::Network& net_;
  Options opts_;
  sim::Rng& migration_rng_;  // "cloud.migration"
  net::DnsZone zone_;
  std::vector<std::unique_ptr<net::Host>> avs_hosts_;
  std::vector<std::unique_ptr<AvsServerApp>> avs_apps_;
  std::vector<std::unique_ptr<net::Host>> other_hosts_;
  std::vector<std::unique_ptr<GenericTlsServerApp>> other_apps_;
  std::unique_ptr<net::Host> google_host_;
  std::unique_ptr<GoogleCloudApp> google_app_;
  std::unique_ptr<net::Host> dns_host_;
  std::unique_ptr<net::DnsServerApp> dns_app_;
  std::size_t active_avs_{0};
  std::uint64_t migrations_{0};
};

}  // namespace vg::cloud
