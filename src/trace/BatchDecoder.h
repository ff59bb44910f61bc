#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/TraceReader.h"
#include "voiceguard/Recognizer.h"

/// \file BatchDecoder.h
/// Columnar decode of a `.vgt` trace, shaped for BatchReplayer.
///
/// TraceReader materializes an array-of-structs: one ~48-byte TraceRecord per
/// frame, most of whose fields any given consumer never touches. The batch
/// decoder keeps only what recognition reads:
///
///   * the flow table, and sparse side tables for DNS answers, flow begins
///     and fault annotations, each entry carrying its record row and time;
///   * flow-major postings of the upstream data records — the only records
///     whose lengths reach the recognizer — with each record's time, length,
///     row, TLS-vs-datagram bit and `guard::rules::len_class()` (the
///     frequent-length / pair / fixed-pattern rule predicates of §IV-B1), so
///     the replayer's DFA only adjudicates records the predicates marked;
///   * wholesale tallies (TLS records, datagrams, frames, end time), which
///     cover the downstream records no column holds.
///
/// One frame loop checks each CRC, parses the payload and appends the
/// upstream rows in stream order; a counting sort by flow then fills the
/// postings.
///
/// Validation is exactly as strict as TraceReader's (bad magic/version/CRC,
/// short frames, unknown kinds, out-of-range or out-of-order flow indices,
/// varint overflow, trailing payload bytes, header frame-count mismatch all
/// raise TraceError with the same text); property tests pin the postings and
/// side tables against TraceReader over random traces and the error text
/// over every corruption of the golden corpus. Decoding reads straight off
/// the input span, so an mmap'd file (TraceBytes) is never copied.

namespace vg::trace {

/// One trace decoded for replay.
struct ColumnBatch {
  TraceMeta meta;
  /// flows[k].first_seen is the time of flow k's begin frame.
  std::vector<TraceFlow> flows;

  /// Sparse side columns, in stream order (`index` is the record row).
  struct DnsEvent {
    std::uint64_t index;
    std::int64_t when_ns;
    std::uint8_t domain_code;
    net::IpAddress answer;
  };
  struct FaultEvent {
    std::uint64_t index;
    std::int64_t when_ns;
    std::uint8_t code;
    std::uint64_t param;
  };
  std::vector<DnsEvent> dns;
  std::vector<FaultEvent> faults;
  /// flow_begin_at[k] = record row of flows[k]'s begin frame.
  std::vector<std::uint64_t> flow_begin_at;

  /// Flow-major postings of the upstream data records (counting sort by
  /// flow): bucket k = rows [up_offsets[k], up_offsets[k+1]) of the up_*
  /// arrays, in stream order within the bucket. BatchReplayer's per-flow
  /// pass reads each flow's upstream history sequentially with the flow
  /// state in registers, instead of chasing a scattered flow table through
  /// a store-to-load dependency on every record.
  std::vector<std::uint32_t> up_offsets;  // flows.size() + 1 prefix sums
  std::vector<std::int64_t> up_when;      // when_ns of the record
  std::vector<std::uint32_t> up_len;      // length of the record
  std::vector<std::uint32_t> up_pos;      // record row (spike ordering)
  std::vector<std::uint8_t> up_cls;       // guard::rules::len_class(length)
  std::vector<std::uint8_t> up_tls;       // 1 = TLS record, 0 = datagram

  /// One upstream data record in stream order: the frame loop's output and
  /// the counting sort's input.
  struct UpRow {
    std::int64_t when_ns;
    std::uint32_t flow;
    std::uint32_t len;
    std::uint32_t pos;
    std::uint8_t cls;
    std::uint8_t tls;
  };
  /// Scratch for the frame loop, reused across decodes; contents are
  /// meaningless after decode. Default-initialized, never zeroed: only the
  /// rows a decode writes are ever touched, so an over-long header count
  /// costs address space, not resident memory.
  std::unique_ptr<UpRow[]> up_rows;
  std::size_t up_rows_cap{0};

  // Wholesale tallies (include the downstream records no column holds).
  std::uint64_t frames{0};
  std::uint64_t tls_records{0};
  std::uint64_t datagrams{0};

  sim::TimePoint end_time;

  [[nodiscard]] std::size_t size() const { return frames; }
};

class BatchDecoder {
 public:
  /// Decodes (and fully validates) \p bytes into fresh columns.
  static ColumnBatch decode(std::span<const std::uint8_t> bytes);

  /// Decodes into \p out, reusing its capacity: once the buffers have grown
  /// to the workload's high-water mark, decoding allocates nothing.
  static void decode(std::span<const std::uint8_t> bytes, ColumnBatch& out);

  /// TraceBytes::from_file + decode, with parse errors prefixed by the path.
  static ColumnBatch load(const std::string& path);
};

}  // namespace vg::trace
