#include "workloads.h"

#include <limits>

#include "common/clock.h"

namespace ita::record {
namespace {

/// Streams never run dry: each loop stops on its own work or schedule.
constexpr std::size_t kUnboundedEvents =
    std::numeric_limits<std::size_t>::max() / 2;

/// The paper's Figure 3 defaults: a WSJ-sized Zipf dictionary, ~100-term
/// documents, 1,000 uniform 10-term queries with k = 10, a 1,000-document
/// count window, one document per epoch. Document bodies come from a
/// pre-synthesized pool so generation stays out of the recorder's way.
Workload PaperFig3(std::uint64_t seed) {
  Workload w;
  sim::ScenarioSpec& s = w.spec;
  s.name = "paper_fig3";
  s.seed = seed;
  s.events = kUnboundedEvents;
  s.window = WindowSpec::CountBased(1'000);
  s.batch_size = 1;
  s.pool_documents = 4'096;
  s.arrivals.shape = sim::ArrivalShape::kPoisson;
  s.arrivals.rate_per_second = 16'000.0;
  s.vocabulary.dictionary_size = 181'978;
  s.vocabulary.zipf_exponent = 1.0;
  s.vocabulary.length_mu = 4.6;
  s.vocabulary.length_sigma = 0.5;
  s.vocabulary.min_length = 16;
  s.vocabulary.max_length = 1'000;
  s.queries.initial_queries = 1'000;
  s.queries.terms_per_query = 10;
  s.queries.k = 10;
  s.queries.install_after_events = 1'000;
  w.mode = sim::IngestMode::kPerEvent;
  w.closed_epochs_per_second = 45'000.0;
  return w;
}

/// The zipf_drift preset reshaped so the term tiers migrate: 1,024
/// queries over the whole 1,200-term dictionary, epochs of 1,024
/// documents over a 2,048-document window, and a hot set that swaps
/// between two halves of the dictionary every 12 epochs. A term's tier
/// EMA (its run length plus probe steps per epoch) reaches the default
/// promotion threshold of 768 only in epochs this large; each swap
/// promotes the new head terms and demotes the old ones. Queries on both
/// halves keep every epoch's cost alike.
Workload ZipfDriftSeq(std::uint64_t seed) {
  Workload w;
  w.spec = sim::ZipfDriftScenario(seed);
  sim::ScenarioSpec& s = w.spec;
  s.name = "zipf_drift_seq";
  s.events = kUnboundedEvents;
  s.batch_size = 1'024;
  s.window = WindowSpec::CountBased(2'048);
  s.vocabulary.drift_interval_events = 12'288;
  s.vocabulary.drift_stride = 600;
  s.arrivals.rate_per_second = 12'000.0;
  s.queries.initial_queries = 1'024;
  s.queries.hot_max_term = 0;
  s.queries.install_after_events = s.window.count;
  w.closed_epochs_per_second = 40.0;
  w.settle_epochs = 24;  // one full swap cycle
  return w;
}

/// The hot_term_flood preset with 1,024 queries on S = 2 under
/// flash-crowd arrivals. Queries span the whole 700-term dictionary and
/// the hot set, flooded terms included, swaps between two halves of it
/// every 1,000 documents, so the costly queries change with each swap and
/// the aggressive rebalancer moves queries during the measured loop. On
/// the preset's even query load (queries on the 30 hottest ranks), and
/// under the default policy on this one, no query ever moves at S = 2.
Workload FloodBurstS2(std::uint64_t seed) {
  Workload w;
  w.spec = sim::HotTermFloodScenario(seed);
  sim::ScenarioSpec& s = w.spec;
  s.name = "flood_burst_s2";
  s.events = kUnboundedEvents;
  s.arrivals.shape = sim::ArrivalShape::kFlashCrowd;
  s.arrivals.rate_per_second = 1'200.0;
  s.arrivals.burst_factor = 3.0;
  s.arrivals.burst_period_seconds = 0.5;
  s.arrivals.burst_duration_seconds = 0.1;
  s.vocabulary.drift_interval_events = 1'000;
  s.vocabulary.drift_stride = 350;
  s.queries.initial_queries = 1'024;
  s.queries.hot_max_term = 0;
  s.queries.install_after_events = s.window.count;
  w.shards = 2;
  w.rebalance.mode = exec::RebalanceMode::kAggressive;
  w.closed_epochs_per_second = 1'000.0;
  return w;
}

/// The churn_storm shape scaled up, durable, on S = 2: 64 queries retire
/// and 64 register every epoch of 8 documents over a 4 s time window, with
/// expiry-only advances; every epoch is logged first and checkpoints run
/// beside the stream. Control-plane writes dominate each epoch: a larger
/// document share made the workload's timings swing with the machine's
/// cache contention (README.md, Calibration).
Workload ChurnDurableS2(std::uint64_t seed) {
  Workload w;
  w.spec = sim::ChurnStormScenario(seed);
  sim::ScenarioSpec& s = w.spec;
  s.name = "churn_durable_s2";
  s.events = kUnboundedEvents;
  s.window = WindowSpec::TimeBased(SecondsToMicros(4.0));
  s.advance_period_epochs = 50;
  s.batch_size = 8;
  s.arrivals.rate_per_second = 200.0;
  s.vocabulary.dictionary_size = 2'000;
  s.queries.initial_queries = 1'024;
  s.queries.hot_max_term = 300;
  s.queries.storm_period_epochs = 1;
  s.queries.storm_size = 64;
  // Two window-lengths of arrivals before the install fill the window.
  s.queries.install_after_events = 1'600;
  w.shards = 2;
  w.durable = true;
  w.closed_epochs_per_second = 560.0;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_fig3", "zipf_drift_seq", "flood_burst_s2", "churn_durable_s2"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "paper_fig3") return PaperFig3(seed);
  if (name == "zipf_drift_seq") return ZipfDriftSeq(seed);
  if (name == "flood_burst_s2") return FloodBurstS2(seed);
  if (name == "churn_durable_s2") return ChurnDurableS2(seed);
  return std::nullopt;
}

}  // namespace ita::record
