#include "audio/Verifiers.h"

#include <algorithm>
#include <stdexcept>

namespace vg::audio {

void VoiceMatchVerifier::enroll(const SpeakerProfile& owner, sim::Rng& rng,
                                int samples, double margin) {
  if (samples < 2) throw std::invalid_argument("enroll needs >= 2 samples");
  std::vector<VoiceSample> enrolls;
  enrolls.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) enrolls.push_back(owner.live_utterance(rng));

  centroid_ = {};
  for (const auto& s : enrolls) {
    for (std::size_t d = 0; d < kEmbeddingDim; ++d) {
      centroid_[d] += s.features.embedding[d] / samples;
    }
  }
  double max_dist = 0.0;
  for (const auto& s : enrolls) {
    max_dist = std::max(max_dist,
                        embedding_distance(s.features.embedding, centroid_));
  }
  // Sample i lies n/(n-1) times farther from the centroid of the other n-1
  // samples than from the full centroid. A new utterance is scored against a
  // centroid it did not help build, so the threshold is calibrated on those
  // leave-one-out distances; the in-sample ones would set it too tight.
  threshold_ = max_dist * samples / (samples - 1) * margin;
  enrolled_ = true;
}

double VoiceMatchVerifier::score(const VoiceSample& s) const {
  return embedding_distance(s.features.embedding, centroid_);
}

}  // namespace vg::audio
