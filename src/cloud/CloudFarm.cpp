#include "cloud/CloudFarm.h"

#include <algorithm>

namespace vg::cloud {

CloudFarm::CloudFarm(net::Network& net, net::Router& router, Options opts)
    : net_(net),
      opts_(opts),
      migration_rng_(net.sim().rng("cloud.migration")) {
  auto attach = [&](net::Host& h) {
    net::Link& l =
        net.add_link(h, router, opts_.wan_latency, opts_.wan_jitter);
    h.attach(l);
    router.add_route(h.ip(), l);
  };

  // AVS pool: 52.94.232.x
  for (int i = 0; i < opts_.avs_ip_count; ++i) {
    auto host = std::make_unique<net::Host>(
        net, "avs-" + std::to_string(i),
        net::IpAddress(52, 94, 232, static_cast<std::uint8_t>(10 + i)));
    attach(*host);
    avs_apps_.push_back(std::make_unique<AvsServerApp>(*host, opts_.avs));
    avs_hosts_.push_back(std::move(host));
  }
  zone_.set(opts_.avs_domain, {avs_hosts_[active_avs_]->ip()});

  // Other Amazon servers: 54.239.28.x
  for (int i = 0; i < opts_.other_amazon_count; ++i) {
    auto host = std::make_unique<net::Host>(
        net, "amazon-misc-" + std::to_string(i),
        net::IpAddress(54, 239, 28, static_cast<std::uint8_t>(20 + i)));
    attach(*host);
    other_apps_.push_back(std::make_unique<GenericTlsServerApp>(*host));
    zone_.set("misc-" + std::to_string(i) + ".amazon.com", {host->ip()});
    other_hosts_.push_back(std::move(host));
  }

  // Google backend: 142.250.65.100
  google_host_ = std::make_unique<net::Host>(net, "google-cloud",
                                             net::IpAddress(142, 250, 65, 100));
  attach(*google_host_);
  google_app_ = std::make_unique<GoogleCloudApp>(*google_host_, opts_.google);
  zone_.set(opts_.google_domain, {google_host_->ip()});

  // DNS server: 8.8.8.8 (stands in for the router's forwarder — what matters
  // is that the speaker's queries/responses traverse the guard box).
  dns_host_ =
      std::make_unique<net::Host>(net, "dns", net::IpAddress(8, 8, 8, 8));
  attach(*dns_host_);
  dns_app_ = std::make_unique<net::DnsServerApp>(*dns_host_, zone_);

  if (opts_.avs_migration_mean.ns() > 0 && avs_hosts_.size() > 1) {
    schedule_migration();
  }
}

std::vector<net::IpAddress> CloudFarm::other_amazon_ips() const {
  std::vector<net::IpAddress> ips;
  ips.reserve(other_hosts_.size());
  for (const auto& h : other_hosts_) ips.push_back(h->ip());
  return ips;
}

void CloudFarm::migrate_avs_now() {
  ++migrations_;
  const std::size_t old = active_avs_;
  active_avs_ = (active_avs_ + 1) % avs_hosts_.size();
  zone_.set(opts_.avs_domain, {avs_hosts_[active_avs_]->ip()});
  net_.sim().log(sim::LogLevel::kInfo, "cloud-farm",
                 "AVS migrated " + avs_hosts_[old]->ip().to_string() + " -> " +
                     avs_hosts_[active_avs_]->ip().to_string());
  // The retiring server drains its speakers; they reconnect to the new IP.
  avs_apps_[old]->close_all_sessions();
}

void CloudFarm::schedule_migration() {
  const sim::Duration wait = sim::from_seconds(
      migration_rng_.exponential_mean(opts_.avs_migration_mean.seconds()));
  net_.sim().after(wait, [this] {
    migrate_avs_now();
    schedule_migration();
  });
}

std::vector<ExecutedCommand> CloudFarm::all_executed() const {
  std::vector<ExecutedCommand> all;
  for (const auto& app : avs_apps_) {
    all.insert(all.end(), app->executed().begin(), app->executed().end());
  }
  all.insert(all.end(), google_app_->executed().begin(),
             google_app_->executed().end());
  std::sort(all.begin(), all.end(),
            [](const ExecutedCommand& a, const ExecutedCommand& b) {
              return a.when < b.when;
            });
  return all;
}

std::uint64_t CloudFarm::total_sequence_violations() const {
  std::uint64_t n = google_app_->sequence_violations();
  for (const auto& app : avs_apps_) n += app->sequence_violations();
  return n;
}

}  // namespace vg::cloud
