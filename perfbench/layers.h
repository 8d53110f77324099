// Per-layer replays for the traced run. Each times the public functions of
// one module from outside, under benchmark-owned spans, on the workload's
// own inputs.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/fixture.h"

namespace perfbench {

struct LayerInputs {
  std::string model_path;
  /// Sentences in the order the workload sends them (repeats included).
  std::vector<Tokens> stream;
  /// Raw text the workload tokenizes (the sentences rendered as text when
  /// the workload has none).
  std::string text;
  /// When true, cache.hit_ratio comes from the server and the replay only
  /// times Get/Put.
  bool server_hit_ratio = false;
};

/// Runs every replay and sets the per-layer metrics of the core, plan,
/// runtime, tensor, protocol, cache, registry, text and stream layers.
void RunLayerReplays(const LayerInputs& in, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
