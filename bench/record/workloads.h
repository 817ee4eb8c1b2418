/// \file
/// The four workloads of the benchmark of record (README.md says why each
/// exists and which layer it stresses). Everything here is frozen: a
/// change to a spec or to a closed-loop work constant changes what every
/// later run measures, so it is a benchmark change of its own and never
/// rides along with a change that claims a gain.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/sharded_server.h"
#include "sim/scenario.h"
#include "sim/sim_engine.h"

namespace ita::record {

/// One workload: the stream it feeds and the engine it feeds it to.
struct Workload {
  /// The stream. Its arrival rate is the open loop's offered load, since
  /// the open loop maps virtual time one-to-one onto wall time.
  sim::ScenarioSpec spec;
  /// 0 runs the sequential ItaServer; otherwise a ShardedServer with this
  /// many shards and as many worker threads.
  std::size_t shards = 0;
  /// The sharded engine's placement policy.
  exec::RebalanceOptions rebalance;
  /// kPerEvent streams each document through Ingest (the paper's loop).
  sim::IngestMode mode = sim::IngestMode::kBatch;
  /// Appends every epoch to a persist::EpochLog before applying it and
  /// checkpoints the engine every kCheckpointEveryEpochs epochs.
  bool durable = false;
  /// Closed-loop work per second of `--seconds`, in epochs: about 60% of
  /// the recording machine's capacity at the commit that set it, so the
  /// closed loop fills most of an untraced run there and does the same
  /// work on every later commit.
  double closed_epochs_per_second = 0.0;
  /// Epochs run after the query install, inside set-up, so the
  /// rebalancer's and the term tiers' moving averages settle before
  /// anything is timed (on workloads where either one acts).
  std::size_t settle_epochs = 128;
};

/// Checkpoint cadence of a durable workload.
inline constexpr std::size_t kCheckpointEveryEpochs = 128;

/// The workload names, in their canonical order.
const std::vector<std::string>& WorkloadNames();

/// Workload `name` for `seed`, or nullopt when the name is unknown.
std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace ita::record
