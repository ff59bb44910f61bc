#include "trace/BatchDecoder.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>

#include "trace/TraceInput.h"

namespace vg::trace {

namespace {

std::int64_t checked_advance(std::int64_t last_ns, std::uint64_t dt) {
  if (dt > static_cast<std::uint64_t>(
               std::numeric_limits<std::int64_t>::max() - last_ns)) {
    throw TraceError{"frame timestamp overflows"};
  }
  return last_ns + static_cast<std::int64_t>(dt);
}

/// ByteCursor::string() into \p s's existing capacity.
void read_string(ByteCursor& c, std::string& s) {
  const std::uint16_t n = c.u16();
  s.assign(reinterpret_cast<const char*>(c.bytes(n, "string body")), n);
}

/// guard::rules::len_class of every length up to the widest rule length;
/// every rule length is at most kPatternFirstMax, so longer ones are class 0.
constexpr auto kLenClass = [] {
  std::array<std::uint8_t, guard::rules::kPatternFirstMax + 1> t{};
  for (std::uint32_t len = 0; len < t.size(); ++len) {
    t[len] = guard::rules::len_class(len);
  }
  return t;
}();

/// Grows \p out's row scratch to \p n rows, keeping the first \p keep.
void grow_rows(ColumnBatch& out, std::size_t n, std::size_t keep) {
  auto rows = std::make_unique_for_overwrite<ColumnBatch::UpRow[]>(n);
  std::copy_n(out.up_rows.get(), keep, rows.get());
  out.up_rows = std::move(rows);
  out.up_rows_cap = n;
}

}  // namespace

ColumnBatch BatchDecoder::decode(std::span<const std::uint8_t> bytes) {
  ColumnBatch out;
  decode(bytes, out);
  return out;
}

void BatchDecoder::decode(std::span<const std::uint8_t> bytes,
                          ColumnBatch& out) {
  out.flows.clear();
  out.dns.clear();
  out.faults.clear();
  out.flow_begin_at.clear();
  out.up_offsets.clear();  // per-flow upstream counts until the sort
  out.frames = 0;
  out.tls_records = 0;
  out.datagrams = 0;
  out.end_time = sim::TimePoint{};

  ByteCursor c{bytes.data(), bytes.size()};
  const std::uint8_t* magic = c.bytes(kMagic.size(), "magic");
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (magic[i] != kMagic[i]) throw TraceError{"bad magic: not a .vgt trace"};
  }
  const std::uint16_t version = c.u16();
  if (version != kVersion) {
    throw TraceError{"unsupported trace version " + std::to_string(version)};
  }
  const std::uint16_t flags = c.u16();
  if (flags != 0) throw TraceError{"unsupported header flags"};

  out.meta.seed = c.u64();
  const std::uint64_t declared_frames = c.u64();
  read_string(c, out.meta.scenario);
  read_string(c, out.meta.avs_domain);
  read_string(c, out.meta.google_domain);

  // A frame is >= 6 bytes on the wire (size byte, >= 1 payload byte, CRC),
  // so remaining/6 bounds the frame count whatever the header claims. Upstream
  // rows are a subset of the frames: size the scratch from the header, grow
  // it only if the stream outruns the header (a corrupt count).
  const std::size_t bound = c.remaining() / 6;
  if (out.up_rows_cap < std::min<std::uint64_t>(declared_frames, bound)) {
    grow_rows(out, std::min<std::uint64_t>(declared_frames, bound), 0);
  }
  ColumnBatch::UpRow* rows = out.up_rows.get();
  std::size_t m = 0;

  std::int64_t last_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t tls_records = 0;
  std::uint64_t datagrams = 0;
  while (!c.done()) {
    const std::uint8_t size = c.u8();
    if (size == 0) throw TraceError{"zero-size frame"};
    const std::uint8_t* payload = c.bytes(size, "frame payload");
    const std::uint32_t stored_crc = c.u32();
    if (crc32(payload, size) != stored_crc) {
      throw TraceError{"frame CRC mismatch at frame " + std::to_string(frames)};
    }

    ByteCursor p{payload, size};
    const std::uint8_t kind_byte = p.u8();
    last_ns = checked_advance(last_ns, p.varint());

    switch (kind_byte) {
      case static_cast<std::uint8_t>(FrameKind::kTlsRecord):
      case static_cast<std::uint8_t>(FrameKind::kDatagram): {
        const bool tls =
            kind_byte == static_cast<std::uint8_t>(FrameKind::kTlsRecord);
        const std::uint64_t flow = p.varint();
        if (flow >= out.flows.size()) {
          throw TraceError{tls ? "record references undefined flow"
                               : "datagram references undefined flow"};
        }
        const std::uint8_t dir = p.u8();
        if (dir > 1) throw TraceError{"bad direction byte"};
        if (tls) (void)p.u8();  // content type: recognition never reads it
        const std::uint64_t len = p.varint();
        if (len > 0xFFFFFFFFull) {
          throw TraceError{tls ? "record length overflows"
                               : "datagram length overflows"};
        }
        ++(tls ? tls_records : datagrams);
        if (dir != 0) break;  // downstream: tallied, never classified
        if (m == out.up_rows_cap) [[unlikely]] {
          grow_rows(out, std::min(std::max<std::size_t>(64, 2 * m), bound), m);
          rows = out.up_rows.get();
        }
        rows[m++] = {last_ns, static_cast<std::uint32_t>(flow),
                     static_cast<std::uint32_t>(len),
                     static_cast<std::uint32_t>(frames),
                     len < kLenClass.size() ? kLenClass[len] : std::uint8_t{0},
                     tls ? std::uint8_t{1} : std::uint8_t{0}};
        ++out.up_offsets[flow];
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kDnsAnswer): {
        const std::uint8_t domain = p.u8();
        if (domain != kDomainAvs && domain != kDomainGoogle) {
          throw TraceError{"bad DNS domain code"};
        }
        out.dns.push_back({frames, last_ns, domain, net::IpAddress{p.u32()}});
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFlowBegin): {
        const std::uint64_t flow = p.varint();
        if (flow != out.flows.size()) {
          throw TraceError{"flow indices must be dense and in order"};
        }
        const std::uint8_t proto = p.u8();
        if (proto > 1) throw TraceError{"bad protocol byte"};
        TraceFlow fl;
        fl.protocol = proto == 1 ? net::Protocol::kUdp : net::Protocol::kTcp;
        fl.speaker.ip = net::IpAddress{p.u32()};
        fl.speaker.port = p.u16();
        fl.server.ip = net::IpAddress{p.u32()};
        fl.server.port = p.u16();
        fl.first_seen = sim::TimePoint{last_ns};
        out.flows.push_back(fl);
        out.flow_begin_at.push_back(frames);
        out.up_offsets.push_back(0);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFault): {
        const std::uint8_t code = p.u8();
        if (code > kMaxFaultCode) throw TraceError{"bad fault code"};
        out.faults.push_back({frames, last_ns, code, p.varint()});
        break;
      }
      default:
        throw TraceError{"unknown frame kind " + std::to_string(kind_byte)};
    }
    if (!p.done()) throw TraceError{"trailing bytes in frame payload"};
    ++frames;
  }

  if (frames != declared_frames) {
    throw TraceError{"frame count mismatch: header says " +
                     std::to_string(declared_frames) + ", stream has " +
                     std::to_string(frames)};
  }
  // Rows and posting offsets are 32-bit; a varint delta stream cannot reach
  // 2^32 frames without the header count (u64) still agreeing, so guard
  // rather than truncate.
  if (frames > std::numeric_limits<std::uint32_t>::max()) {
    throw TraceError{"trace too large for flow-major postings"};
  }
  out.frames = frames;
  out.tls_records = tls_records;
  out.datagrams = datagrams;
  out.end_time = sim::TimePoint{last_ns};

  // Counting sort of the rows by flow. The counts become bucket ends; the
  // reverse scatter pre-decrements them, which keeps stream order within a
  // bucket and leaves each offset at its bucket's start.
  std::uint32_t total = 0;
  for (std::uint32_t& off : out.up_offsets) {
    total += off;
    off = total;
  }
  out.up_offsets.push_back(total);
  out.up_when.resize(total);
  out.up_len.resize(total);
  out.up_pos.resize(total);
  out.up_cls.resize(total);
  out.up_tls.resize(total);
  std::uint32_t* const off = out.up_offsets.data();
  for (std::size_t r = m; r-- > 0;) {
    const ColumnBatch::UpRow& row = rows[r];
    const std::uint32_t at = --off[row.flow];
    out.up_when[at] = row.when_ns;
    out.up_len[at] = row.len;
    out.up_pos[at] = row.pos;
    out.up_cls[at] = row.cls;
    out.up_tls[at] = row.tls;
  }
}

ColumnBatch BatchDecoder::load(const std::string& path) {
  const TraceBytes bytes = TraceBytes::from_file(path);
  try {
    return decode(bytes.span());
  } catch (const TraceIoError&) {
    throw;
  } catch (const TraceError& e) {
    throw TraceError{path + ": " + e.what()};
  }
}

}  // namespace vg::trace
