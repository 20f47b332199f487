// Tests for the mechanized Theorem 6 proof: certificates build and verify
// on the paper instance, the tight adversarial family, and hundreds of
// randomized instances; the verifier rejects tampered certificates; and
// the preconditions are enforced.
#include "analysis/charging.hpp"

#include <gtest/gtest.h>

#include "analysis/competitive.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/strategy.hpp"
#include "model/workload.hpp"

namespace mcs::analysis {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

TEST(Charging, Fig4CertificateBuildsAndVerifies) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const ChargingCertificate certificate =
      build_half_competitive_certificate(s, bids);
  EXPECT_EQ(certificate.optimal_welfare, mu(74));
  EXPECT_EQ(certificate.greedy_welfare, mu(69));
  EXPECT_EQ(certificate.charges.size(), 5u);  // one per OPT edge
  EXPECT_NO_THROW(verify_half_competitive_certificate(certificate, s, bids));
}

TEST(Charging, TightFamilyCertificateIsExactlyHalf) {
  // The adversarial gadgets sit right at the bound; the proof must still
  // go through (the inequalities hold with near-equality).
  const model::Scenario s = tight_competitive_scenario(4, 1000);
  const model::BidProfile bids = s.truthful_bids();
  const ChargingCertificate certificate =
      build_half_competitive_certificate(s, bids);
  EXPECT_NO_THROW(verify_half_competitive_certificate(certificate, s, bids));
  EXPECT_LE(certificate.optimal_welfare, certificate.greedy_welfare * 2);
  // And it is genuinely tight: 2*greedy - opt is tiny relative to opt.
  const Money slack = certificate.greedy_welfare * 2 -
                      certificate.optimal_welfare;
  EXPECT_LT(slack.ratio_to(certificate.optimal_welfare), 0.01);
}

class ChargingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChargingProperty, RandomInstancesAdmitVerifiedCertificates) {
  Rng rng(GetParam());
  model::ScenarioBuilder builder(6);
  builder.value(50);
  const int phones = static_cast<int>(rng.uniform_int(1, 10));
  for (int i = 0; i < phones; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 6));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 6));
    builder.phone(a, d, rng.uniform_int(1, 50));  // costs <= nu
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 8));
  for (int k = 0; k < tasks; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 6)));
  }
  const model::Scenario s = builder.build();
  const model::BidProfile bids = s.truthful_bids();

  const ChargingCertificate certificate =
      build_half_competitive_certificate(s, bids);
  EXPECT_NO_THROW(verify_half_competitive_certificate(certificate, s, bids));
  // The bound the certificate proves matches the direct measurement.
  const CompetitiveResult direct = competitive_ratio(s, bids);
  EXPECT_EQ(direct.online_welfare, certificate.greedy_welfare);
  EXPECT_EQ(direct.offline_welfare, certificate.optimal_welfare);
  if (!certificate.optimal_welfare.is_zero()) {
    EXPECT_GE(direct.ratio, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChargingProperty,
                         ::testing::Range<std::uint64_t>(7000, 7100));

TEST(Charging, VerifierRejectsTamperedCertificates) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const ChargingCertificate good =
      build_half_competitive_certificate(s, bids);

  {
    ChargingCertificate bad = good;
    bad.optimal_welfare += mu(1);
    EXPECT_THROW(verify_half_competitive_certificate(bad, s, bids),
                 ContractViolation);
  }
  {
    ChargingCertificate bad = good;
    bad.charges.pop_back();  // an OPT edge goes uncharged
    EXPECT_THROW(verify_half_competitive_certificate(bad, s, bids),
                 ContractViolation);
  }
  {
    ChargingCertificate bad = good;
    bad.charges.push_back(bad.charges.front());  // double charge
    EXPECT_THROW(verify_half_competitive_certificate(bad, s, bids),
                 ContractViolation);
  }
  {
    ChargingCertificate bad = good;
    // Point a charge at a phone that is not part of the claimed edge.
    bad.charges.front().greedy_phone = PhoneId{2};  // a greedy loser
    EXPECT_THROW(verify_half_competitive_certificate(bad, s, bids),
                 ContractViolation);
  }
}

TEST(Charging, PreconditionsAreEnforced) {
  // Costs above nu.
  const model::Scenario pricey =
      model::ScenarioBuilder(1).value(5).phone(1, 1, 9).task(1).build();
  EXPECT_THROW(std::ignore = build_half_competitive_certificate(
                   pricey, pricey.truthful_bids()),
               InvalidArgumentError);

  // Reserve-priced configs are out of scope.
  const model::Scenario s = model::fig4_scenario();
  auction::OnlineGreedyConfig reserved;
  reserved.reserve_price = mu(10);
  EXPECT_THROW(std::ignore = build_half_competitive_certificate(
                   s, s.truthful_bids(), reserved),
               InvalidArgumentError);
}

TEST(Charging, ScalesToTableOneSizedInstances) {
  // The proof object stays checkable at evaluation scale, not just on toy
  // graphs: a Table-I round (hundreds of phones) certifies in one go.
  Rng rng(7777);
  model::WorkloadConfig workload;  // Table-I defaults; costs <= 49 < nu = 50
  workload.num_slots = 30;
  const model::Scenario s = model::generate_scenario(workload, rng);
  ASSERT_GT(s.phone_count(), 100);
  const model::BidProfile bids = s.truthful_bids();
  const ChargingCertificate certificate =
      build_half_competitive_certificate(s, bids);
  EXPECT_EQ(certificate.charges.size(),
            static_cast<std::size_t>(s.task_count()) -
                0u)  // every task served at this supply level
      << "supply-rich rounds serve every task";
  EXPECT_NO_THROW(verify_half_competitive_certificate(certificate, s, bids));
}

TEST(Charging, HoldsUnderMisreportsToo) {
  // Theorem 6 is about the allocation, not incentives: the certificate
  // must also build on strategic bid profiles (claimed costs <= nu).
  const model::Scenario s = model::fig4_scenario();
  Rng rng(9);
  const model::BidProfile bids =
      model::apply_strategy(s, model::CostMarkupStrategy(1.4), rng);
  const ChargingCertificate certificate =
      build_half_competitive_certificate(s, bids);
  EXPECT_NO_THROW(verify_half_competitive_certificate(certificate, s, bids));
}

}  // namespace
}  // namespace mcs::analysis
