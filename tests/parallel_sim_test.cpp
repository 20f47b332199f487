// Tests for the multi-threaded simulator: identical sample sets to the
// sequential run, merge correctness, and argument handling.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace mcs::sim {
namespace {

SimulationConfig config_for_test() {
  SimulationConfig config;
  config.workload.num_slots = 10;
  config.workload.phone_arrival_rate = 4.0;
  config.workload.task_arrival_rate = 2.0;
  config.workload.mean_cost = 10.0;
  config.workload.task_value = Money::from_units(25);
  config.repetitions = 12;
  config.base_seed = 77;
  return config;
}

TEST(ParallelSim, MatchesSequentialAggregates) {
  const SimulationConfig config = config_for_test();
  const StandardMechanisms mechanisms;
  const SimulationResult sequential = simulate(config, mechanisms.pointers());
  for (const int threads : {2, 3, 4}) {
    const SimulationResult parallel =
        simulate_parallel(config, mechanisms.pointers(), threads);
    ASSERT_EQ(parallel.mechanisms.size(), sequential.mechanisms.size());
    for (std::size_t k = 0; k < sequential.mechanisms.size(); ++k) {
      const MechanismAggregate& a = sequential.mechanisms[k];
      const MechanismAggregate& b = parallel.mechanisms[k];
      EXPECT_EQ(a.name, b.name);
      ASSERT_EQ(a.social_welfare.count(), b.social_welfare.count())
          << "threads=" << threads;
      // Same sample set, possibly different accumulation order.
      EXPECT_NEAR(a.social_welfare.mean(), b.social_welfare.mean(), 1e-9);
      EXPECT_NEAR(a.overpayment_ratio.mean(), b.overpayment_ratio.mean(),
                  1e-12);
      EXPECT_DOUBLE_EQ(a.social_welfare.min(), b.social_welfare.min());
      EXPECT_DOUBLE_EQ(a.social_welfare.max(), b.social_welfare.max());
    }
    EXPECT_EQ(parallel.phones_per_round.count(),
              sequential.phones_per_round.count());
    EXPECT_NEAR(parallel.phones_per_round.mean(),
                sequential.phones_per_round.mean(), 1e-9);
  }
}

TEST(ParallelSim, SingleThreadDelegatesToSequential) {
  const SimulationConfig config = config_for_test();
  const StandardMechanisms mechanisms;
  const SimulationResult a = simulate(config, mechanisms.pointers());
  const SimulationResult b =
      simulate_parallel(config, mechanisms.pointers(), 1);
  EXPECT_DOUBLE_EQ(a.mechanisms[0].social_welfare.mean(),
                   b.mechanisms[0].social_welfare.mean());
}

TEST(ParallelSim, MoreThreadsThanRepsIsFine) {
  SimulationConfig config = config_for_test();
  config.repetitions = 2;
  const StandardMechanisms mechanisms;
  const SimulationResult result =
      simulate_parallel(config, mechanisms.pointers(), 16);
  EXPECT_EQ(result.mechanisms[0].social_welfare.count(), 2u);
}

TEST(ParallelSim, DefaultThreadCountWorks) {
  const SimulationConfig config = config_for_test();
  const StandardMechanisms mechanisms;
  const SimulationResult result =
      simulate_parallel(config, mechanisms.pointers(), 0);
  EXPECT_EQ(result.mechanisms[0].social_welfare.count(), 12u);
}

TEST(ParallelSim, MergedTelemetryMatchesSequential) {
  // Worker-local registries reduced in worker order must produce exactly
  // the counters a single-threaded run records: the same repetitions run
  // with the same per-repetition seeds, so every work counter (Hungarian
  // iterations, SPFA pops, critical-value probes, greedy pool sizes) is
  // deterministic. Span histograms are excluded -- the sequential path
  // records span.sim.simulate_us while the parallel one records
  // span.sim.simulate_parallel_us -- so the comparison strips "span."
  // entries and skips wall-clock duration histograms.
  const SimulationConfig config = config_for_test();
  const StandardMechanisms mechanisms;

  obs::MetricsRegistry sequential_metrics;
  {
    const obs::ScopedRegistry guard(&sequential_metrics);
    (void)simulate(config, mechanisms.pointers());
  }
  const obs::MetricsSnapshot sequential = sequential_metrics.snapshot();
  EXPECT_EQ(sequential.counters.at("sim.repetitions"),
            static_cast<std::int64_t>(config.repetitions));
  EXPECT_GT(sequential.counters.at("matching.hungarian.iterations"), 0);
  EXPECT_GT(sequential.counters.at("auction.critical_value.probes"), 0);

  for (const int threads : {2, 3, 4}) {
    obs::MetricsRegistry parallel_metrics;
    {
      const obs::ScopedRegistry guard(&parallel_metrics);
      (void)simulate_parallel(config, mechanisms.pointers(), threads);
    }
    const obs::MetricsSnapshot parallel = parallel_metrics.snapshot();

    auto strip_spans = [](const std::map<std::string, std::int64_t>& in) {
      std::map<std::string, std::int64_t> out;
      for (const auto& [name, value] : in) {
        if (name.rfind("span.", 0) != 0) out[name] = value;
      }
      return out;
    };
    EXPECT_EQ(strip_spans(parallel.counters), strip_spans(sequential.counters))
        << "threads=" << threads;

    // The greedy pool-size histogram records deterministic integer samples,
    // so even its bucket layout must reduce exactly.
    const auto& seq_pool = sequential.histograms.at("auction.greedy.pool_size");
    const auto& par_pool = parallel.histograms.at("auction.greedy.pool_size");
    EXPECT_EQ(par_pool.counts, seq_pool.counts) << "threads=" << threads;
    EXPECT_EQ(par_pool.count, seq_pool.count);
    EXPECT_EQ(par_pool.sum_ns, seq_pool.sum_ns);

    // Wall-clock histograms vary in values but not in sample counts.
    EXPECT_EQ(parallel.histograms.at("sim.repetition_duration_us").count,
              static_cast<std::uint64_t>(config.repetitions));
  }
}

TEST(ParallelSim, SharesInputValidationWithSequential) {
  SimulationConfig config = config_for_test();
  const StandardMechanisms mechanisms;
  config.repetitions = 0;
  EXPECT_THROW(simulate_parallel(config, mechanisms.pointers(), 4),
               ContractViolation);
  config = config_for_test();
  EXPECT_THROW(simulate_parallel(config, {}, 4), ContractViolation);
}

}  // namespace
}  // namespace mcs::sim
