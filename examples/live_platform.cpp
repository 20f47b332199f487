// The platform as it would actually run: a live, slot-by-slot market.
//
// This example streams the paper's Fig. 4 round into a serve::RoundMachine
// one event at a time, exactly as a serve shard consumes it: tasks are
// announced as queries come in, phones bid the moment they join, and each
// slot_tick runs that slot's allocation. The console shows the events slot
// by slot and, under each tick, the assignments made and the payments
// settled -- every winner is paid during the tick of its reported
// departure slot. It is the Fig. 1/2 message flow of the paper, executable.
#include <cstdint>
#include <iostream>
#include <variant>
#include <vector>

#include "io/cli.hpp"
#include "model/paper_examples.hpp"
#include "obs/event_log.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"

namespace {

using namespace mcs;

Money money_attr(const obs::Event& event, std::string_view key) {
  for (const auto& [name, value] : event.attrs) {
    if (name == key) return std::get<Money>(value);
  }
  return Money{};
}

/// Prints the round machine's decisions the moment they are recorded.
class DecisionPrinter final : public obs::EventSink {
 public:
  void append(const obs::Event& event, std::uint64_t /*seq*/) override {
    if (event.type == "task_assigned") {
      std::cout << "    -> task " << event.task << " assigned to phone "
                << event.phone << " (bid " << money_attr(event, "bid")
                << ")\n";
    } else if (event.type == "payment_derivation") {
      std::cout << "    -> phone " << event.phone << " departs, paid "
                << money_attr(event, "payment") << '\n';
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  io::CliParser cli(
      "Streams the paper's Fig. 4 round through the live slot-by-slot "
      "platform and prints each slot's events, assignments and payments.");
  if (!cli.parse(argc, argv)) return 0;

  const model::Scenario scenario = model::fig4_scenario();
  std::cout << "Live round: " << scenario.task_count() << " sensing queries, "
            << scenario.phone_count() << " smartphones, "
            << scenario.num_slots << " slots.\n"
            << "(paper Fig. 4 instance; phone ids below are 0-based)\n\n";

  const std::vector<serve::ServeEvent> events =
      serve::round_events(0, scenario, scenario.truthful_bids());
  DecisionPrinter printer;
  obs::EventLog log(&printer);
  const obs::ScopedEventLog install(&log);

  serve::RoundMachine machine(events.front(), {});
  std::cout << serve::encode_serve_event(events.front()) << '\n';
  Slot current{0};
  for (std::size_t k = 1; k < events.size(); ++k) {
    const serve::ServeEvent& event = events[k];
    const Slot slot = event.kind == serve::ServeEventKind::kBidSubmitted
                          ? event.window.begin()
                          : event.slot;
    if (event.kind != serve::ServeEventKind::kRoundClose && slot != current) {
      current = slot;
      std::cout << "--- slot " << current << " ---\n";
    }
    std::cout << "  " << serve::encode_serve_event(event) << '\n';
    (void)machine.apply(event);
  }

  std::cout << "\nEnd of round. Total paid: " << machine.take_outcome().total_paid
            << " (the batch mechanism computes the identical outcome; see "
               "tests/streaming_equivalence_test.cpp).\n";
  return 0;
}
