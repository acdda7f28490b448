// The fleet benchmark's workloads: two ShardedFleetRunner configurations
// that load different layers, each a pure function of (name, seed).
//
//  * direct_collect -- verifier-heavy: kDirect serve + batched MAC verify of
//    k = 16 records per device per round, one self-measurement per round,
//    with energy metering and roaming malware on.
//  * overlay_agg    -- radio-heavy: 3000 SMART+ devices on the multi-hop
//    overlay with cluster-head aggregation; cheap to build.
//
// The seed sets the plan's key seed, the mobility seed and the adversary
// seed; nothing else varies between seeds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

namespace fleetbench {

/// Workload names in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Full size (what the benchmark times) or reduced (the thread-identity
/// test: same shape, a tenth of the devices and a few rounds).
enum class Size { kFull, kReduced };

/// The runner configuration of workload `name`. Throws
/// std::invalid_argument on an unknown name.
erasmus::scenario::ShardedFleetConfig make_config(std::string_view name,
                                                  uint64_t seed,
                                                  size_t threads,
                                                  Size size = Size::kFull);

/// Lower-case hex SHA-256 of `text`.
std::string sha256_hex(std::string_view text);

/// Builds a runner from `config`, runs it into a JsonSink named after the
/// workload and returns the JSON document.
std::string run_to_json(std::string_view name,
                        erasmus::scenario::ShardedFleetConfig config);

}  // namespace fleetbench
