#pragma once

#include <vector>

#include "audio/Voice.h"

/// \file Verifiers.h
/// The audio-domain defenses VoiceGuard is compared against:
///  - VoiceMatchVerifier: commercial "voice profile" matching — a distance
///    threshold in embedding space, trained at setup. Bypassed by replay and
///    synthesis ([31], [48], [72]).
///  - LivenessDetector: a Void-style channel/liveness classifier — catches
///    naive replay, but an adaptive synthesis attacker evades it ([14]).

namespace vg::audio {

class VoiceMatchVerifier {
 public:
  /// Enrolls the owner from \p samples (at least 2) live utterances (the
  /// setup-phase training of commercial speakers). Threshold = max
  /// leave-one-out enrollment distance x margin.
  void enroll(const SpeakerProfile& owner, sim::Rng& rng, int samples = 8,
              double margin = 1.35);

  [[nodiscard]] bool enrolled() const { return enrolled_; }
  [[nodiscard]] double threshold() const { return threshold_; }

  /// Distance of \p s to the enrolled centroid.
  [[nodiscard]] double score(const VoiceSample& s) const;

  /// True if the sample would be accepted as the owner.
  [[nodiscard]] bool accepts(const VoiceSample& s) const {
    return enrolled_ && score(s) <= threshold_;
  }

 private:
  Embedding centroid_{};
  double threshold_{0.0};
  bool enrolled_{false};
};

class LivenessDetector {
 public:
  struct Options {
    double max_channel_noise = 0.40;
    double min_liveness = 0.55;
  };

  LivenessDetector() : LivenessDetector(Options{}) {}
  explicit LivenessDetector(Options opts) : opts_(opts) {}

  /// True if the sample looks like a live human utterance.
  [[nodiscard]] bool accepts(const VoiceSample& s) const {
    return s.features.channel_noise <= opts_.max_channel_noise &&
           s.features.liveness >= opts_.min_liveness;
  }

 private:
  Options opts_;
};

}  // namespace vg::audio
