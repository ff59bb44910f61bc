#pragma once

#include <string>
#include <string_view>

#include "scenario/Scenario.h"

/// \file ScenarioLoader.h
/// Decodes and validates `.scn` text into a ScenarioSpec with the same
/// validate-before-install discipline as faults::FaultInjector: the loader
/// either returns a spec that has passed every check (types, ranges,
/// kind/section consistency, schedule monotonicity, capture-op flow
/// references and timeline order, and the fault plans' own faults::validate
/// and fleet::validate) or throws ScnError naming the offending section, key
/// and line — never a half-decoded spec. The workload-side runner can
/// therefore install a loaded spec without re-checking the text.

namespace vg::scenario {

class ScenarioLoader {
 public:
  /// Parses and validates one scenario. Throws ScnError on any defect.
  static ScenarioSpec load(std::string_view text);

  /// Reads \p path and load()s it. I/O failures throw std::runtime_error
  /// naming the path; parse/validation ScnErrors are rethrown with the path
  /// prefixed to the message.
  static ScenarioSpec load_file(const std::string& path);
};

}  // namespace vg::scenario
