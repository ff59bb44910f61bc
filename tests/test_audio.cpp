#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "audio/Verifiers.h"
#include "audio/Voice.h"
#include "simcore/Rng.h"

namespace vg::audio {
namespace {

struct AudioFixture : ::testing::Test {
  sim::RngRegistry reg{2024};
  sim::Rng& rng = reg.stream("audio");
  SpeakerProfile owner = SpeakerProfile::random(rng);
  SpeakerProfile stranger = SpeakerProfile::random(rng);
  VoiceMatchVerifier vm;

  void SetUp() override { vm.enroll(owner, rng); }

  template <typename Gen>
  double acceptance_rate(Gen gen, int n = 300) {
    int ok = 0;
    for (int i = 0; i < n; ++i) {
      if (vm.accepts(gen())) ++ok;
    }
    return static_cast<double>(ok) / n;
  }

  /// Mean acceptance of \p attack over 32 enrolled owners, 300 attempts
  /// each. One owner's rate hinges on the threshold its 8 enrollment samples
  /// set, which varies more between owners than between attacks (synthesis:
  /// 0.49 to 0.96 for the middle 90% of owners), so the attack claims are
  /// about the mean owner.
  template <typename Attack>
  static double population_rate(Attack attack) {
    sim::RngRegistry owners{2024};
    constexpr int kOwners = 32;
    constexpr int kAttempts = 300;
    double sum = 0.0;
    for (int o = 0; o < kOwners; ++o) {
      sim::Rng& r = owners.stream("owner" + std::to_string(o));
      const SpeakerProfile victim = SpeakerProfile::random(r);
      VoiceMatchVerifier v;
      v.enroll(victim, r);
      int ok = 0;
      for (int i = 0; i < kAttempts; ++i) ok += v.accepts(attack(victim, r)) ? 1 : 0;
      sum += static_cast<double>(ok) / kAttempts;
    }
    return sum / kOwners;
  }
};

TEST_F(AudioFixture, OwnerLiveUtterancesAccepted) {
  EXPECT_GT(acceptance_rate([&] { return owner.live_utterance(rng); }), 0.95);
}

TEST_F(AudioFixture, StrangerRejected) {
  EXPECT_LT(acceptance_rate([&] { return stranger.live_utterance(rng); }),
            0.05);
}

TEST_F(AudioFixture, ReplayBypassesVoiceMatch) {
  // The voice-match protection of commercial speakers is evaded by replaying
  // the owner's recorded voice ([31], [48], [72]).
  EXPECT_GT(acceptance_rate([&] { return replay_attack(owner, rng); }), 0.85);
}

TEST_F(AudioFixture, SynthesisBypassesVoiceMatch) {
  EXPECT_GT(population_rate(synthesis_attack), 0.70);
}

TEST_F(AudioFixture, UltrasoundOftenBypassesVoiceMatch) {
  // Demodulation distorts the identity match more than replay/synthesis do,
  // but a substantial fraction still slips past the voice-match threshold.
  EXPECT_GT(population_rate(ultrasound_attack), 0.30);
}

TEST_F(AudioFixture, LivenessDetectorCatchesNaiveReplay) {
  LivenessDetector ld;
  int caught = 0;
  for (int i = 0; i < 300; ++i) {
    if (!ld.accepts(replay_attack(owner, rng))) ++caught;
  }
  EXPECT_GT(caught, 270);
}

TEST_F(AudioFixture, AdaptiveSynthesisEvadesLivenessDetector) {
  // The [14] adaptive-attacker point: knowing the detector, synthesis
  // suppresses the cues liveness detection keys on.
  LivenessDetector ld;
  int passed = 0;
  for (int i = 0; i < 300; ++i) {
    if (ld.accepts(synthesis_attack(owner, rng))) ++passed;
  }
  EXPECT_GT(passed, 240);
}

TEST_F(AudioFixture, LivenessDetectorAcceptsLiveSpeech) {
  LivenessDetector ld;
  int passed = 0;
  for (int i = 0; i < 300; ++i) {
    if (ld.accepts(owner.live_utterance(rng))) ++passed;
  }
  EXPECT_GT(passed, 285);
}

TEST(Voice, EmbeddingDistanceIsAMetricOnExamples) {
  Embedding a{}, b{};
  b[0] = 3.0;
  b[1] = 4.0;
  EXPECT_DOUBLE_EQ(embedding_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(embedding_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(embedding_distance(a, b), embedding_distance(b, a));
}

TEST(Voice, SourcesLabelled) {
  EXPECT_EQ(to_string(SampleSource::kReplay), "replay");
  EXPECT_EQ(to_string(SampleSource::kSynthesis), "synthesis");
}

TEST(Voice, ThresholdComesFromLeaveOneOutDistances) {
  // With two enrollment samples, each one's distance to the centroid of the
  // other is the distance between them: twice its in-sample distance.
  sim::RngRegistry reg{9};
  auto& rng = reg.stream("a");
  const SpeakerProfile p = SpeakerProfile::random(rng);
  sim::Rng replay = rng;
  const VoiceSample a = p.live_utterance(replay);
  const VoiceSample b = p.live_utterance(replay);
  VoiceMatchVerifier vm;
  vm.enroll(p, rng, /*samples=*/2, /*margin=*/1.0);
  EXPECT_NEAR(vm.threshold(),
              embedding_distance(a.features.embedding, b.features.embedding),
              1e-12);
  EXPECT_THROW(vm.enroll(p, rng, /*samples=*/1), std::invalid_argument);
}

TEST(Voice, UnenrolledVerifierRejectsEverything) {
  sim::RngRegistry reg{9};
  auto& rng = reg.stream("a");
  const SpeakerProfile p = SpeakerProfile::random(rng);
  VoiceMatchVerifier vm;
  EXPECT_FALSE(vm.enrolled());
  EXPECT_FALSE(vm.accepts(p.live_utterance(rng)));
}

}  // namespace
}  // namespace vg::audio
