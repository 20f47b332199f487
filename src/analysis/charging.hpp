// A mechanized proof of Theorem 6 (the paper omits it): per-instance
// charging certificates for the greedy allocation's 1/2-competitiveness.
//
// The classical charging argument, made executable. Fix an instance with a
// *uniform* task value nu and every claimed cost at most nu (so all edge
// weights are nonnegative). Let OPT be a maximum-weight allocation and G
// the greedy one. Charge every OPT edge (tau @ slot t, phone p) to a
// greedy edge:
//
//   * same-phone charge: if greedy allocated p (to some task tau'), charge
//     to (tau', p). Both edges cost b_p against the same value nu, so the
//     charged greedy edge's weight EQUALS the OPT edge's weight.
//   * same-task charge: otherwise p is never allocated by greedy, so p sat
//     in greedy's pool throughout slot t -- greedy therefore served tau,
//     by some q at least as cheap as p (or it would have taken p). Charge
//     to (tau, q), whose weight is >= the OPT edge's weight.
//
// Every greedy edge receives at most one charge of each kind, and every
// charge is covered by the charged edge's weight; summing,
// omega_OPT <= 2 * omega_G. build_... constructs the explicit charge list;
// verify_... re-checks every one of these claims from scratch and throws
// on the first violation -- a proof checker, not a trust-me flag.
//
// OPT is the offline mechanism's own allocation (auction/offline_vcg).
// The preconditions are real: a reserve price can bar OPT's phones from
// greedy's pool, and a claimed cost above nu makes an edge weight
// negative, so the builder rejects both instead of pretending.
#pragma once

#include <vector>

#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::analysis {

enum class ChargeKind {
  kSamePhone,  ///< OPT's phone is busy in greedy; equal-weight charge
  kSameTask,   ///< OPT's phone idle in greedy => greedy served the task cheaper
};

/// One OPT edge redirected onto one greedy edge.
struct Charge {
  TaskId opt_task{-1};
  PhoneId opt_phone{-1};
  ChargeKind kind{ChargeKind::kSamePhone};
  TaskId greedy_task{-1};
  PhoneId greedy_phone{-1};
};

struct ChargingCertificate {
  Money greedy_welfare;   ///< omega_G (claimed welfare of the greedy run)
  Money optimal_welfare;  ///< omega_OPT
  std::vector<Charge> charges;  ///< one per OPT edge
};

/// Builds the certificate. Throws InvalidArgumentError when the instance is
/// outside the theorem's scope: a reserve price, or a claimed cost above
/// the task value. (The construction itself asserts the proof's case analysis;
/// an assertion failure would mean the theorem -- or this library -- is
/// wrong.)
[[nodiscard]] ChargingCertificate build_half_competitive_certificate(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {});

/// Re-verifies a certificate from first principles against the instance:
/// each OPT edge charged exactly once, charge targets are real greedy
/// edges with the claimed relationship (same phone / same task + cheaper),
/// no greedy edge is charged twice with the same kind, every charge is
/// weight-covered, and the implied bound omega_OPT <= 2 * omega_G holds
/// numerically. Throws ContractViolation on the first broken claim.
void verify_half_competitive_certificate(
    const ChargingCertificate& certificate, const model::Scenario& scenario,
    const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {});

}  // namespace mcs::analysis
