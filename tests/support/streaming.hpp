// Streams one scenario round through a serve::RoundMachine, event by event,
// as a serve shard would: the round_events stream of (scenario, bids) in
// order, from round_open to round_close. Header-only, so only the test
// binaries that include it link mcs_serve.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "auction/online_greedy.hpp"
#include "model/scenario.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"

namespace mcs::test_support {

inline serve::RoundOutcome stream_round(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {}) {
  const std::vector<serve::ServeEvent> events =
      serve::round_events(0, scenario, bids);
  serve::RoundMachine machine(events.front(), config);
  for (std::size_t k = 1; k < events.size(); ++k) {
    const bool closed = machine.apply(events[k]);
    EXPECT_EQ(closed, k + 1 == events.size());
  }
  return machine.take_outcome();
}

}  // namespace mcs::test_support
