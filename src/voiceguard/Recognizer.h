#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

/// \file Recognizer.h
/// Pure packet-length logic of the Voice Command Traffic Recognition
/// sub-module (§IV-B): connection-signature matching (to track the AVS
/// server's IP across DNS-less reconnects) and the phase-1/phase-2 spike
/// classifier. Everything here operates on observable wire lengths only — no
/// payload, no tags.

namespace vg::guard {

/// The measured frequent-length rule table of §IV-B1, named. These are the
/// single source of truth for the classifier; Recognizer.cpp and the replay
/// tooling (`vgtrace stats`) both read them from here.
namespace rules {

/// Frequent phase-1 (command) lengths: a p-138 or p-75 packet appears within
/// the first \ref kFrequentWindow packets of most command spikes.
inline constexpr std::uint32_t kP138 = 138;
inline constexpr std::uint32_t kP75 = 75;
inline constexpr std::size_t kFrequentWindow = 5;

/// Frequent phase-2 (response) pair: p-77 *immediately followed by* p-33,
/// anywhere in the first \ref kPairWindow packets.
inline constexpr std::uint32_t kP77 = 77;
inline constexpr std::uint32_t kP33 = 33;
inline constexpr std::size_t kPairWindow = 7;

/// The three fixed phase-1 fallback patterns: a first packet in
/// [kPatternFirstMin, kPatternFirstMax] (mode 277) followed by one of the
/// three measured 4-packet tails.
inline constexpr std::uint32_t kPatternFirstMin = 250;
inline constexpr std::uint32_t kPatternFirstMax = 650;
inline constexpr std::size_t kPatternLen = 5;
inline constexpr std::array<std::uint32_t, 4> kPatternTailA{131, 277, 131, 113};
inline constexpr std::array<std::uint32_t, 4> kPatternTailB{131, 113, 113, 113};
inline constexpr std::array<std::uint32_t, 4> kPatternTailC{131, 121, 277, 131};

/// No rule is defined past this many packets: an undecided spike becomes
/// kUnknown once this window fills (or the spike ends earlier).
inline constexpr std::size_t kDecisionWindow = 7;

/// How many leading packet lengths of a spike the guard box and the trace
/// tooling keep for reporting (SpikeEvent::prefix / ReplaySpike::prefix).
/// One more than the decision window, so a report always shows the record
/// that *followed* a forced kUnknown verdict.
inline constexpr std::size_t kSpikePrefixKeep = 8;

/// Length-class bits: which role(s) a wire length can play in the rule table
/// above. The columnar replay path stores one class byte per upstream record
/// as it decodes, from a table of this function (trace::BatchDecoder); records
/// whose class is 0 can neither complete nor keep alive any rule, so the
/// batch replayer routes them through SpikeClassifier::feed_nonrule instead
/// of the full per-record rule evaluation.
enum LenClass : std::uint8_t {
  kLenFrequent = 1u << 0,      // kP138 or kP75
  kLenPairFirst = 1u << 1,     // kP77
  kLenPairSecond = 1u << 2,    // kP33
  kLenPatternFirst = 1u << 3,  // in [kPatternFirstMin, kPatternFirstMax]
  kLenPatternTail = 1u << 4,   // member of some fixed-pattern tail
};

constexpr std::uint8_t len_class(std::uint32_t len) {
  std::uint8_t c = 0;
  if (len == kP138 || len == kP75) c |= kLenFrequent;
  if (len == kP77) c |= kLenPairFirst;
  if (len == kP33) c |= kLenPairSecond;
  if (len >= kPatternFirstMin && len <= kPatternFirstMax) {
    c |= kLenPatternFirst;
  }
  for (const auto& tail : {kPatternTailA, kPatternTailB, kPatternTailC}) {
    for (std::uint32_t t : tail) {
      if (len == t) c |= kLenPatternTail;
    }
  }
  return c;
}

}  // namespace rules

/// Incremental prefix matcher for a packet-length signature.
class SignatureMatcher {
 public:
  explicit SignatureMatcher(std::vector<std::uint32_t> signature)
      : signature_(std::move(signature)) {}

  enum class State { kMatching, kMatched, kFailed };

  /// Feeds the next observed upstream packet length of a fresh connection.
  State feed(std::uint32_t len);

  [[nodiscard]] State state() const { return state_; }
  void reset() {
    state_ = State::kMatching;
    index_ = 0;
  }

 private:
  std::vector<std::uint32_t> signature_;
  std::size_t index_{0};
  State state_{State::kMatching};
};

/// How a spike was classified.
enum class SpikeClass {
  kCommand,   // phase 1: hold and query the Decision Module
  kResponse,  // phase 2: let through
  kUnknown,   // matched no rule: let through (these are the FNs of Table I)
};

std::string to_string(SpikeClass c);

/// Which entry of the §IV-B1 rule table produced a verdict.
enum class MatchedRule {
  kNone,          // no rule fired (kUnknown spikes, and forced verdicts)
  kP138,          // frequent phase-1 length 138
  kP75,           // frequent phase-1 length 75
  kPatternA,      // fixed pattern [250-650, 131, 277, 131, 113]
  kPatternB,      // fixed pattern [250-650, 131, 113, 113, 113]
  kPatternC,      // fixed pattern [250-650, 131, 121, 277, 131]
  kResponsePair,  // sequential p-77/p-33 pair
};

std::string to_string(MatchedRule r);

/// Which fixed fallback pattern the first \ref rules::kPatternLen packets
/// match (kPatternA/B/C), or kNone.
MatchedRule fixed_pattern_rule(const std::vector<std::uint32_t>& first5);

/// Incremental classifier over the first packets of one spike. Decides as
/// early as the rules allow:
///  - p-138 or p-75 within the first 5 packets        -> kCommand
///  - first five packets match a fixed pattern        -> kCommand
///  - p-77 immediately followed by p-33 in first 7    -> kResponse
///  - 7 packets seen (or the spike ended) w/o a match -> kUnknown
///
/// Implemented as an O(1)-per-record DFA: the pair rule needs only the
/// previous length, the frequent rule only the record counter, and the three
/// fixed patterns run as parallel prefix-match cursors (a bitmask). Because
/// every rule is re-checked the instant the record completing it arrives —
/// in the same priority order the legacy window scan used (pair, then
/// frequent, then pattern) — the verdict stream is bit-identical to
/// re-evaluating the whole window per record (legacy::WindowScanClassifier,
/// the reference oracle; the equivalence property test enforces this).
/// The seen-prefix buffer is an inline std::array, so feeding a spike never
/// allocates.
class SpikeClassifier {
 public:
  /// Feeds the next packet length. Returns the verdict once final.
  /// Defined inline below: the batch replayer calls this per spike record in
  /// its hot loop.
  std::optional<SpikeClass> feed(std::uint32_t len);

  /// Fast path for a record the vectorized predicates already proved is
  /// outside the rule alphabet (rules::len_class(len) == 0): such a length
  /// can complete no rule and kills every fixed-pattern cursor, so only the
  /// record counter / previous-length register / forced-kUnknown bookkeeping
  /// remain. Behaviour is identical to feed(len) for any such length (the
  /// equivalence property test enforces this); feeding a rule-alphabet
  /// length here is a contract violation.
  std::optional<SpikeClass> feed_nonrule(std::uint32_t len);

  /// Forces a verdict from what has been seen (spike ended / timeout).
  [[nodiscard]] SpikeClass finalize() const {
    // While undecided, no rule can have matched (each rule fires on the
    // record completing it), so the forced verdict is always kUnknown.
    return decided_ ? *decided_ : SpikeClass::kUnknown;
  }

  /// The rule behind the verdict (kNone while undecided / for kUnknown).
  /// O(1): the rule is fixed at decision time, never re-derived.
  [[nodiscard]] MatchedRule matched_rule() const { return rule_; }

  [[nodiscard]] std::span<const std::uint32_t> seen() const {
    return {lens_.data(), count_};
  }

  /// The three fixed phase-1 patterns (first packet is a 250-650 range).
  static bool matches_fixed_pattern(const std::vector<std::uint32_t>& first5);

 private:
  // Pattern-cursor bits: set while the prefix seen so far still matches the
  // corresponding fixed pattern.
  static constexpr std::uint8_t kBitA = 1u << 0;
  static constexpr std::uint8_t kBitB = 1u << 1;
  static constexpr std::uint8_t kBitC = 1u << 2;

  std::array<std::uint32_t, rules::kDecisionWindow> lens_{};
  std::size_t count_{0};
  std::uint32_t prev_{0};
  std::uint8_t pattern_alive_{kBitA | kBitB | kBitC};
  std::optional<SpikeClass> decided_;
  MatchedRule rule_{MatchedRule::kNone};
};

inline std::optional<SpikeClass> SpikeClassifier::feed(std::uint32_t len) {
  using namespace rules;
  if (decided_) return decided_;
  const std::size_t i = count_;  // index of this record; < kDecisionWindow
  lens_[i] = len;
  ++count_;

  // Rule priority per record mirrors the window scan: the phase-2 pair is
  // checked before the phase-1 frequent lengths so that a response spike that
  // happens to carry a 138/75 later cannot be mistaken for a command (the
  // paper reports 100% precision for this ordering). Only the rule a new
  // record can *complete* needs checking: earlier completions would already
  // have decided.
  if (i >= 1 && prev_ == kP77 && len == kP33) {
    // i <= kPairWindow - 1 always holds while undecided.
    decided_ = SpikeClass::kResponse;
    rule_ = MatchedRule::kResponsePair;
    return decided_;
  }
  if (i < kFrequentWindow && (len == kP138 || len == kP75)) {
    decided_ = SpikeClass::kCommand;
    rule_ = len == kP138 ? MatchedRule::kP138 : MatchedRule::kP75;
    return decided_;
  }
  if (pattern_alive_ != 0) {
    if (i == 0) {
      if (len < kPatternFirstMin || len > kPatternFirstMax) pattern_alive_ = 0;
    } else if (i < kPatternLen) {
      const std::size_t t = i - 1;
      if (kPatternTailA[t] != len) pattern_alive_ &= ~kBitA;
      if (kPatternTailB[t] != len) pattern_alive_ &= ~kBitB;
      if (kPatternTailC[t] != len) pattern_alive_ &= ~kBitC;
      if (i == kPatternLen - 1 && pattern_alive_ != 0) {
        decided_ = SpikeClass::kCommand;
        rule_ = (pattern_alive_ & kBitA) != 0   ? MatchedRule::kPatternA
                : (pattern_alive_ & kBitB) != 0 ? MatchedRule::kPatternB
                                                : MatchedRule::kPatternC;
        return decided_;
      }
    }
  }
  prev_ = len;
  if (count_ >= kDecisionWindow) {
    // No rule matched within the window where the rules are defined.
    decided_ = SpikeClass::kUnknown;
    rule_ = MatchedRule::kNone;
    return decided_;
  }
  return std::nullopt;
}

inline std::optional<SpikeClass> SpikeClassifier::feed_nonrule(
    std::uint32_t len) {
  using namespace rules;
  if (decided_) return decided_;
  lens_[count_] = len;
  ++count_;
  // A non-alphabet length is never 33 (so it completes no pair), never a
  // frequent length, and matches no pattern position — every cursor dies.
  pattern_alive_ = 0;
  prev_ = len;
  if (count_ >= kDecisionWindow) {
    decided_ = SpikeClass::kUnknown;
    rule_ = MatchedRule::kNone;
    return decided_;
  }
  return std::nullopt;
}

/// Classifies a complete spike prefix offline (tests, Table I bench).
SpikeClass classify_spike(const std::vector<std::uint32_t>& lens);

/// A verdict plus the rule that produced it.
struct RuleMatch {
  SpikeClass cls{SpikeClass::kUnknown};
  MatchedRule rule{MatchedRule::kNone};
};

/// classify_spike with the matched rule, for offline tooling.
RuleMatch analyze_spike(const std::vector<std::uint32_t>& lens);

/// The pre-DFA classifier, kept compiled as the reference oracle for the
/// equivalence tests: it re-walks the whole seen window (pair rule, frequent
/// rule, fixed patterns, in that priority order) after every record, which is
/// trivially correct but O(window) per record and heap-backed.
namespace legacy {

class WindowScanClassifier {
 public:
  std::optional<SpikeClass> feed(std::uint32_t len);
  [[nodiscard]] SpikeClass finalize() const;
  [[nodiscard]] MatchedRule matched_rule() const;

 private:
  struct Evaluation {
    std::optional<SpikeClass> cls;
    MatchedRule rule{MatchedRule::kNone};
  };
  [[nodiscard]] Evaluation evaluate(bool final_call) const;

  std::vector<std::uint32_t> lens_;
  std::optional<SpikeClass> decided_;
  MatchedRule rule_{MatchedRule::kNone};
};

RuleMatch analyze_spike(const std::vector<std::uint32_t>& lens);

}  // namespace legacy

}  // namespace vg::guard
