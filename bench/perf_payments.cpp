// Algorithm-2 payment microbenches on the GreedyRound kernel: the batch
// mechanism (payments after the round), the serve RoundMachine fed the
// round's event stream (payments settled at each winner's reported
// departure), and the critical-value bisection built on probe forks.
//
// The pinned counter pass (telemetry_main) makes the work counters the
// story: one auction.greedy.allocation_runs per round, one
// auction.counterfactual.payment_forks per winner, and a slots_skipped
// share that is exactly the prefix each fork does not re-run.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/workload.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

model::Scenario scaled_scenario(int slots, std::uint64_t seed) {
  model::WorkloadConfig workload;
  workload.num_slots = slots;
  Rng rng(seed);
  return model::generate_scenario(workload, rng);
}

void BM_Payments_Batch(benchmark::State& state) {
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  const auction::OnlineGreedyMechanism mechanism;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(s, bids));
  }
  state.counters["phones"] = static_cast<double>(s.phone_count());
  state.counters["tasks"] = static_cast<double>(s.task_count());
}
BENCHMARK(BM_Payments_Batch)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(200);

void BM_Payments_Streaming(benchmark::State& state) {
  // The same rounds streamed through the RoundMachine a serve shard runs;
  // the event stream is built once, outside the timed loop.
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const std::vector<serve::ServeEvent> events =
      serve::round_events(0, s, s.truthful_bids());
  for (auto _ : state) {
    serve::RoundMachine machine(events.front(), {});
    for (std::size_t k = 1; k < events.size(); ++k) {
      (void)machine.apply(events[k]);
    }
    benchmark::DoNotOptimize(machine.take_outcome());
  }
}
BENCHMARK(BM_Payments_Streaming)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(200);

void BM_CriticalValue_SharedPrefixBisection(benchmark::State& state) {
  // Every bisection probe forks at the phone's arrival instead of
  // replaying from slot 1.
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  const auction::OnlineGreedyConfig config;
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism(config).run(s, bids);
  const auto winners = outcome.allocation.winners();
  for (auto _ : state) {
    const auction::CounterfactualEngine engine(s, bids, config);
    for (const PhoneId winner : winners) {
      benchmark::DoNotOptimize(auction::greedy_critical_value(engine, winner));
    }
  }
  state.counters["winners"] = static_cast<double>(winners.size());
}
BENCHMARK(BM_CriticalValue_SharedPrefixBisection)->Arg(10)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_payments");
}
