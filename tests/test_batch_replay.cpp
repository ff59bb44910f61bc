/// Equivalence suite for the columnar replay path: BatchDecoder postings and
/// side tables against TraceReader (including varint-boundary lengths and
/// fault frames), its error text against TraceReader's over every corruption
/// and truncation of the golden corpus, SpikeClassifier::feed_nonrule against
/// feed, BatchReplayer against the per-record Replayer oracle over the golden
/// corpus and a large randomized trace population, the allocation-free
/// steady state of decode + replay, and the mmap/fread input paths against
/// each other.

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "trace/Replayer.h"
#include "trace/TraceReader.h"
#include "trace/TraceWriter.h"
#include "voiceguard/GuardBox.h"
#include "workload/ScenarioFuzz.h"

// Counts every global allocation in this binary (the alloc-regression case
// below reads it); include in exactly one TU per binary.
#include "testutil/CountingAllocator.h"

using namespace vg;
using trace::BatchDecoder;
using trace::BatchReplayer;
using trace::ColumnBatch;
using trace::FrameKind;
using trace::TraceBytes;
using trace::TraceReader;
using trace::TraceWriter;

namespace {

constexpr sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint{ms * 1'000'000};
}

const net::IpAddress kSpeaker{192, 168, 1, 200};
const net::IpAddress kAvsIp{10, 0, 0, 1};
const net::IpAddress kAvsIp2{10, 0, 0, 2};
const net::IpAddress kGoogleIp{10, 1, 0, 1};
const net::IpAddress kOtherIp{93, 184, 216, 34};
const net::IpAddress kOtherIp2{93, 184, 216, 35};

/// Lengths a random trace draws from: the whole rule alphabet (frequent
/// lengths, the pair, pattern firsts/tails), the heartbeat, varint encoding
/// boundaries, and plain non-alphabet lengths.
constexpr std::uint32_t kLenPool[] = {
    33,  41,  52,   75,   77,    113,   121,  131, 138, 250,
    277, 300, 650,  651,  1200,  127,   128,  100, 16383, 16384};

/// Inter-record gaps (ms) straddling every timer in the replayer: classify
/// timeout (300 ms), establishment window (1.5 s), spike idle gap (3 s).
constexpr std::int64_t kGapPoolMs[] = {0,   1,    5,    10,   40,  120,
                                       299, 300,  301,  1400, 1500, 1600,
                                       2900, 3000, 3100, 5000};

/// An alternative establishment prefix, consistently repeated so the
/// signature learner republishes mid-trace (>= min_length, not a prefix of
/// the shipped signature).
const std::vector<std::uint32_t> kAltSignature = {212, 90, 90, 333, 47, 47, 610, 18};

struct RandomTrace {
  std::vector<std::uint8_t> bytes;
  trace::ReplayOptions opts;
};

/// Generates one random but structurally valid trace exercising DNS-driven
/// AVS/Google identification, TCP establishment + learning, signature-based
/// re-identification, UDP flows, heartbeats, spikes across every rule, idle
/// gaps, timeouts, downstream noise and fault annotations.
RandomTrace random_trace(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const auto pick = [&](auto&& pool) {
    return pool[rng() % std::size(pool)];
  };

  RandomTrace out;
  switch (rng() % 4) {
    case 0: out.opts.mode = guard::GuardMode::kVoiceGuard; break;
    case 1: out.opts.mode = guard::GuardMode::kNaive; break;
    default: out.opts.mode = guard::GuardMode::kMonitor; break;
  }

  TraceWriter::Meta meta;
  meta.scenario = "random";
  meta.seed = seed;
  TraceWriter w{meta};

  std::int64_t t_ms = 0;
  const auto advance = [&] {
    t_ms += pick(kGapPoolMs);
    return at_ms(t_ms);
  };

  const net::IpAddress dsts[] = {kAvsIp, kAvsIp2, kGoogleIp, kOtherIp,
                                 kOtherIp2};
  std::vector<int> flows;
  std::uint16_t next_port = 40000;

  w.dns_answer(trace::kDomainAvs, rng() % 2 ? kAvsIp : kAvsIp2, advance());
  if (rng() % 2) w.dns_answer(trace::kDomainGoogle, kGoogleIp, advance());

  const int events = 8 + static_cast<int>(rng() % 50);
  for (int e = 0; e < events; ++e) {
    switch (rng() % 8) {
      case 0: {  // new flow
        const net::Protocol proto =
            rng() % 4 == 0 ? net::Protocol::kUdp : net::Protocol::kTcp;
        const net::IpAddress dst = dsts[rng() % std::size(dsts)];
        const int f = w.add_flow(
            proto, net::Endpoint{kSpeaker, net::Port{next_port++}},
            net::Endpoint{dst, net::Port{443}}, advance());
        flows.push_back(f);
        break;
      }
      case 1: {  // DNS update (sometimes moving the AVS IP)
        if (rng() % 2) {
          w.dns_answer(trace::kDomainAvs, rng() % 2 ? kAvsIp : kAvsIp2,
                       advance());
        } else {
          w.dns_answer(trace::kDomainGoogle, kGoogleIp, advance());
        }
        break;
      }
      case 2: {  // establishment/signature burst on a fresh flow
        if (flows.empty()) break;
        const int f = flows[rng() % flows.size()];
        const auto& sig =
            rng() % 2 ? kAltSignature : guard::GuardBox::avs_signature();
        const std::size_t n = 1 + rng() % sig.size();
        for (std::size_t i = 0; i < n; ++i) {
          w.tls_record(f, true, net::TlsContentType::kApplicationData, sig[i],
                       at_ms(t_ms + static_cast<std::int64_t>(i)));
        }
        t_ms += static_cast<std::int64_t>(n);
        break;
      }
      case 3: {  // fault annotation
        w.fault(static_cast<std::uint8_t>(rng() % (trace::kMaxFaultCode + 1)),
                rng() % 1000, advance());
        break;
      }
      default: {  // a burst of data records
        if (flows.empty()) break;
        const int f = flows[rng() % flows.size()];
        const int burst = 1 + static_cast<int>(rng() % 8);
        for (int k = 0; k < burst; ++k) {
          const bool up = rng() % 4 != 0;
          const std::uint32_t len = pick(kLenPool);
          if (rng() % 5 == 0) {
            w.datagram(f, up, len, advance());
          } else {
            w.tls_record(f, up, net::TlsContentType::kApplicationData, len,
                         advance());
          }
        }
        break;
      }
    }
  }
  out.bytes = w.finish();
  return out;
}

void expect_equal_results(const trace::ReplayResult& want,
                          const trace::ReplayResult& got,
                          const std::string& context) {
  ASSERT_EQ(want.spikes.size(), got.spikes.size()) << context;
  for (std::size_t i = 0; i < want.spikes.size(); ++i) {
    const trace::ReplaySpike& a = want.spikes[i];
    const trace::ReplaySpike& b = got.spikes[i];
    ASSERT_EQ(a.flow_id, b.flow_id) << context << " spike " << i;
    ASSERT_EQ(a.udp, b.udp) << context << " spike " << i;
    ASSERT_EQ(a.start, b.start) << context << " spike " << i;
    ASSERT_EQ(a.prefix, b.prefix) << context << " spike " << i;
    ASSERT_EQ(a.cls, b.cls) << context << " spike " << i;
    ASSERT_EQ(a.rule, b.rule) << context << " spike " << i;
  }
  ASSERT_EQ(want.frames, got.frames) << context;
  ASSERT_EQ(want.flows, got.flows) << context;
  ASSERT_EQ(want.avs_flows, got.avs_flows) << context;
  ASSERT_EQ(want.google_flows, got.google_flows) << context;
  ASSERT_EQ(want.unmonitored_flows, got.unmonitored_flows) << context;
  ASSERT_EQ(want.tls_records, got.tls_records) << context;
  ASSERT_EQ(want.datagrams, got.datagrams) << context;
  ASSERT_EQ(want.dns_answers, got.dns_answers) << context;
  ASSERT_EQ(want.fault_frames, got.fault_frames) << context;
  ASSERT_EQ(want.heartbeats, got.heartbeats) << context;
  ASSERT_EQ(want.avs_dns_updates, got.avs_dns_updates) << context;
  ASSERT_EQ(want.avs_signature_updates, got.avs_signature_updates) << context;
  ASSERT_EQ(want.commands, got.commands) << context;
  ASSERT_EQ(want.responses, got.responses) << context;
  ASSERT_EQ(want.unknowns, got.unknowns) << context;
  ASSERT_EQ(want.end_time, got.end_time) << context;
}

std::vector<std::string> golden_corpus() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(VG_TRACE_DATA_DIR)) {
    if (entry.path().extension() == ".vgt") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// --- BatchDecoder vs TraceReader -------------------------------------------

void expect_decoder_parity(const std::vector<std::uint8_t>& bytes,
                           const std::string& context) {
  const TraceReader reader = TraceReader::parse(bytes);
  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  ASSERT_EQ(workload::column_parity_error(reader, batch), "") << context;
}

/// The TraceError text \p parse throws, or "" if it returns.
template <class Parse>
std::string error_of(Parse&& parse) {
  try {
    parse();
  } catch (const trace::TraceError& e) {
    return e.what();
  }
  return "";
}

TEST(BatchDecoder, VarintBoundaryLengthsAndFaults) {
  TraceWriter::Meta meta;
  meta.scenario = "boundaries";
  meta.seed = 7;
  TraceWriter w{meta};
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50001}},
                           net::Endpoint{kAvsIp, net::Port{443}}, at_ms(1));
  std::int64_t t = 2;
  for (std::uint32_t len : {127u, 128u, 16383u, 16384u, 0u, 0xFFFFFFFFu}) {
    w.tls_record(f, true, net::TlsContentType::kApplicationData, len,
                 at_ms(t++));
    w.datagram(f, false, len, at_ms(t++));
  }
  w.fault(0, 127, at_ms(t++));
  w.fault(trace::kMaxFaultCode, 16384, at_ms(t++));
  expect_decoder_parity(w.finish(), "boundaries");
}

/// Decoder parity plus batch-vs-oracle replay parity in one shot, for the
/// hand-built boundary traces below. Returns the oracle result so callers
/// can pin absolute expectations on top of the equivalence.
trace::ReplayResult boundary_parity(const std::vector<std::uint8_t>& bytes,
                                    const std::string& context) {
  expect_decoder_parity(bytes, context);
  const trace::ReplayResult want =
      trace::Replayer{}.run(TraceReader::parse(bytes));
  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  trace::BatchReplayResult result;
  BatchReplayer{}.run(batch, result);
  expect_equal_results(want, result.to_replay_result(), context);
  return want;
}

TEST(BatchDecoder, EmptyTraceDecodesAndReplaysToNothing) {
  TraceWriter::Meta meta;
  meta.scenario = "empty";
  meta.seed = 3;
  const std::vector<std::uint8_t> bytes = TraceWriter{meta}.finish();

  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.flows.empty());
  EXPECT_TRUE(batch.up_when.empty());
  // The counting-sort prefix sums must still be well-formed over zero flows.
  ASSERT_EQ(batch.up_offsets.size(), 1u);
  EXPECT_EQ(batch.up_offsets[0], 0u);

  const trace::ReplayResult r = boundary_parity(bytes, "empty");
  EXPECT_EQ(r.frames, 0u);
  EXPECT_EQ(r.flows, 0u);
  EXPECT_TRUE(r.spikes.empty());
}

TEST(BatchDecoder, SingleRecordTraces) {
  {  // Just one flow-begin frame: a flow with no traffic at all.
    TraceWriter::Meta meta;
    meta.scenario = "one-flow";
    meta.seed = 4;
    TraceWriter w{meta};
    w.add_flow(net::Protocol::kTcp, net::Endpoint{kSpeaker, net::Port{50001}},
               net::Endpoint{kAvsIp, net::Port{443}}, at_ms(5));
    const std::vector<std::uint8_t> bytes = w.finish();

    const ColumnBatch batch = BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()});
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(batch.flows.size(), 1u);
    ASSERT_EQ(batch.flow_begin_at.size(), 1u);
    EXPECT_EQ(batch.flow_begin_at[0], 0u);
    ASSERT_EQ(batch.up_offsets.size(), 2u);
    EXPECT_EQ(batch.up_offsets[1], 0u);  // no upstream data records

    const trace::ReplayResult r = boundary_parity(bytes, "one-flow");
    EXPECT_EQ(r.frames, 1u);
    EXPECT_EQ(r.flows, 1u);
    EXPECT_TRUE(r.spikes.empty());
  }
  {  // Just one DNS answer: no flows anywhere in the trace.
    TraceWriter::Meta meta;
    meta.scenario = "one-dns";
    meta.seed = 5;
    TraceWriter w{meta};
    w.dns_answer(trace::kDomainAvs, kAvsIp, at_ms(5));
    const std::vector<std::uint8_t> bytes = w.finish();

    const ColumnBatch batch = BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_TRUE(batch.flows.empty());
    ASSERT_EQ(batch.dns.size(), 1u);
    EXPECT_EQ(batch.dns[0].index, 0u);

    const trace::ReplayResult r = boundary_parity(bytes, "one-dns");
    EXPECT_EQ(r.dns_answers, 1u);
    EXPECT_EQ(r.avs_dns_updates, 1u);
  }
}

TEST(BatchDecoder, FinalFrameFaultEndsTheTraceCleanly) {
  // A spike is still accumulating when the last frame arrives, and that last
  // frame is a fault annotation: flowless and in no posting, yet it defines
  // end_time and the spike must still finalize at end of trace exactly like
  // the oracle.
  TraceWriter::Meta meta;
  meta.scenario = "tail-fault";
  meta.seed = 6;
  TraceWriter w{meta};
  w.dns_answer(trace::kDomainAvs, kAvsIp, at_ms(1));
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50002}},
                           net::Endpoint{kAvsIp, net::Port{443}}, at_ms(2));
  // Past the 1.5 s establishment window, so the records open a spike rather
  // than feeding the signature learner.
  w.tls_record(f, true, net::TlsContentType::kApplicationData, 75,
               at_ms(2000));
  w.tls_record(f, true, net::TlsContentType::kApplicationData, 77,
               at_ms(2001));
  w.fault(0, 1, at_ms(2002));
  const std::vector<std::uint8_t> bytes = w.finish();

  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  ASSERT_EQ(batch.faults.size(), 1u);
  EXPECT_EQ(batch.faults[0].index, batch.size() - 1);
  EXPECT_EQ(batch.faults[0].when_ns, at_ms(2002).ns());
  // The tail fault contributes tallies but no recognition work.
  EXPECT_EQ(batch.up_offsets.back(), 2u);
  EXPECT_EQ(batch.end_time, at_ms(2002));

  const trace::ReplayResult r = boundary_parity(bytes, "tail-fault");
  EXPECT_EQ(r.fault_frames, 1u);
  EXPECT_EQ(r.end_time, at_ms(2002));
  ASSERT_EQ(r.spikes.size(), 1u);
}

TEST(BatchDecoder, MatchesTraceReaderOnRandomTraces) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    expect_decoder_parity(random_trace(seed).bytes,
                          "seed " + std::to_string(seed));
  }
}

TEST(BatchDecoder, RejectsCorruptionLikeTraceReader) {
  // Every single-byte corruption (four XOR masks at every offset) and every
  // truncation of every golden trace and of one random trace: the decoder
  // must fail exactly when the strict reader does, with the same message.
  // One batch is reused throughout, so a failed decode must also leave it
  // fit for the next one.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> inputs;
  for (const std::string& path : golden_corpus()) {
    inputs.emplace_back(path, trace::read_file(path));
  }
  inputs.emplace_back("random trace 99", random_trace(99).bytes);
  ColumnBatch batch;
  std::size_t cases = 0;
  for (const auto& [path, good] : inputs) {
    const auto expect_same = [&](const std::vector<std::uint8_t>& bad,
                                 const std::string& what) {
      const std::string want =
          error_of([&] { (void)TraceReader::parse(bad); });
      const std::string got = error_of([&] {
        BatchDecoder::decode(
            std::span<const std::uint8_t>{bad.data(), bad.size()}, batch);
      });
      ASSERT_EQ(want, got) << path << ": " << what;
      ++cases;
    };
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      for (const std::uint8_t mask : {0x01, 0x41, 0x80, 0xFF}) {
        std::vector<std::uint8_t> bad = good;
        bad[pos] ^= mask;
        expect_same(bad, "offset " + std::to_string(pos) + " ^ " +
                             std::to_string(mask));
      }
      const auto cut = good.begin() + static_cast<std::ptrdiff_t>(pos);
      expect_same({good.begin(), cut}, "truncated to " + std::to_string(pos));
    }
  }
  EXPECT_GT(cases, 100'000u);
}

TEST(BatchDecoder, HostileHeaderFrameCountsFailLikeTraceReader) {
  // The frame count sits outside every CRC. A count the stream does not
  // hold must give TraceReader's error, and the decoder's scratch must stay
  // bounded by the input (a frame is at least 6 bytes) however large the
  // claim.
  for (const std::string& path : golden_corpus()) {
    const std::vector<std::uint8_t> good = trace::read_file(path);
    const std::uint64_t real = TraceReader::parse(good).records().size();
    for (const std::uint64_t claim :
         {std::uint64_t{1} << 63, real + 1, real - 1}) {
      std::vector<std::uint8_t> bad = good;
      for (int i = 0; i < 8; ++i) {
        bad[trace::kFrameCountOffset + i] =
            static_cast<std::uint8_t>(claim >> (8 * i));
      }
      const std::string want =
          error_of([&] { (void)TraceReader::parse(bad); });
      ASSERT_NE(want, "") << path << " claim " << claim;
      ColumnBatch batch;
      const std::string got = error_of([&] {
        BatchDecoder::decode(
            std::span<const std::uint8_t>{bad.data(), bad.size()}, batch);
      });
      EXPECT_EQ(want, got) << path << " claim " << claim;
      EXPECT_LE(batch.up_rows_cap, bad.size() / 6)
          << path << " claim " << claim;
    }
  }
}

// --- steady-state allocations -----------------------------------------------

TEST(BatchReplayAlloc, SteadyStateDecodeAndReplayAllocateNothing) {
  // The bench and `vgtrace` loop: decode into one reused batch, replay into
  // one reused result. Once a warm-up pass has grown every buffer to its
  // high-water mark, a whole pass over the corpus allocates nothing.
  std::vector<TraceBytes> traces;
  for (const std::string& path : golden_corpus()) {
    traces.push_back(TraceBytes::from_file(path));
  }
  traces.push_back(TraceBytes::from_vector(random_trace(7).bytes));
  ColumnBatch batch;
  BatchReplayer replayer;
  trace::BatchReplayResult result;
  std::uint64_t spikes = 0;
  const auto pass = [&] {
    for (const TraceBytes& t : traces) {
      BatchDecoder::decode(t.span(), batch);
      replayer.run(batch, result);
      spikes += result.spikes.size();
    }
  };
  pass();
  EXPECT_EQ(testutil::allocations_during(pass), 0u);
  EXPECT_GT(spikes, 0u);
}

// --- feed_nonrule vs feed ---------------------------------------------------

TEST(SpikeClassifier, FeedNonruleMatchesFeedForNonAlphabetLengths) {
  std::mt19937_64 rng{2024};
  for (int trial = 0; trial < 20000; ++trial) {
    guard::SpikeClassifier via_feed;
    guard::SpikeClassifier via_fast;
    const int n = 1 + static_cast<int>(rng() % 10);
    for (int k = 0; k < n; ++k) {
      const std::uint32_t len = static_cast<std::uint32_t>(rng() % 1000);
      const auto a = via_feed.feed(len);
      const auto b = guard::rules::len_class(len) != 0
                         ? via_fast.feed(len)
                         : via_fast.feed_nonrule(len);
      ASSERT_EQ(a, b) << "trial " << trial << " record " << k;
    }
    ASSERT_EQ(via_feed.finalize(), via_fast.finalize()) << "trial " << trial;
    ASSERT_EQ(via_feed.matched_rule(), via_fast.matched_rule())
        << "trial " << trial;
  }
}

// --- BatchReplayer vs Replayer ---------------------------------------------

TEST(BatchReplayer, MatchesOracleOnGoldenCorpus) {
  const std::vector<std::string> corpus = golden_corpus();
  ASSERT_FALSE(corpus.empty());
  BatchReplayer batch_replayer;
  for (const std::string& path : corpus) {
    const trace::ReplayResult want =
        trace::Replayer{}.run(TraceReader::load(path));
    const ColumnBatch batch = BatchDecoder::load(path);
    const trace::ReplayResult got =
        batch_replayer.run(batch).to_replay_result();
    expect_equal_results(want, got, path);
  }
}

TEST(BatchReplayer, MatchesOracleOnRandomTraces) {
  // One replayer + batch reused throughout, as the bench and `vgtrace` use
  // them: state leaking between runs would show up as divergence here.
  BatchReplayer monitor_replayer;
  ColumnBatch batch;
  trace::BatchReplayResult result;
  for (std::uint64_t seed = 0; seed < 50000; ++seed) {
    const RandomTrace rt = random_trace(seed);
    const trace::ReplayResult want =
        trace::Replayer{rt.opts}.run(TraceReader::parse(rt.bytes));
    BatchDecoder::decode(
        std::span<const std::uint8_t>{rt.bytes.data(), rt.bytes.size()},
        batch);
    if (rt.opts.mode == guard::GuardMode::kMonitor) {
      monitor_replayer.run(batch, result);
    } else {
      BatchReplayer{rt.opts}.run(batch, result);
    }
    expect_equal_results(want, result.to_replay_result(),
                         "seed " + std::to_string(seed));
  }
}

// --- mmap vs fread input ----------------------------------------------------

TEST(TraceBytes, MappedAndBufferedReadsAgree) {
  for (const std::string& path : golden_corpus()) {
    const TraceBytes mapped = TraceBytes::from_file(path);
    const TraceBytes buffered = TraceBytes::buffered_from_file(path);
    ASSERT_EQ(mapped.size(), buffered.size()) << path;
    ASSERT_TRUE(std::equal(mapped.data(), mapped.data() + mapped.size(),
                           buffered.data()))
        << path;

    const trace::ReplayResult via_map =
        trace::Replayer{}.run(TraceReader::parse(mapped.span()));
    const trace::ReplayResult via_buf =
        trace::Replayer{}.run(TraceReader::parse(buffered.span()));
    expect_equal_results(via_map, via_buf, path);
  }
}

TEST(TraceBytes, OpenErrorNamesPathAndReason) {
  const std::string path = "/nonexistent-dir-vg/test.vgt";
  try {
    (void)TraceReader::load(path);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("No such file"), std::string::npos) << msg;
  }
}

}  // namespace
