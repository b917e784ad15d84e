// Empirical adaptivity estimation: growth-exponent fitting and the
// classifier, validated on synthetic data and on measured zoo sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/zoo.h"
#include "bounds/estimate.h"
#include "tso/schedulers.h"
#include "tso/sim.h"

namespace tpa {
namespace {

using bounds::AdaptivityClass;
using bounds::classify_adaptivity;
using bounds::growth_exponent;
using bounds::Sample;
using tso::Simulator;

TEST(Estimate, ExponentRecoversPowerLaws) {
  auto make = [](double b) {
    std::vector<Sample> s;
    for (double x : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
      s.push_back({x, 3.0 * std::pow(x, b)});
    return s;
  };
  EXPECT_NEAR(growth_exponent(make(0.0)), 0.0, 1e-9);
  EXPECT_NEAR(growth_exponent(make(1.0)), 1.0, 1e-9);
  EXPECT_NEAR(growth_exponent(make(2.0)), 2.0, 1e-9);
  EXPECT_NEAR(growth_exponent(make(0.5)), 0.5, 1e-9);
}

TEST(Estimate, DegenerateInputs) {
  EXPECT_EQ(growth_exponent({}), 0.0);
  EXPECT_EQ(growth_exponent({{4.0, 10.0}}), 0.0) << "one point: no slope";
  EXPECT_EQ(growth_exponent({{0.0, 1.0}, {-1.0, 2.0}}), 0.0)
      << "non-positive samples ignored";
  // Same x twice: zero variance.
  EXPECT_EQ(growth_exponent({{2.0, 1.0}, {2.0, 8.0}}), 0.0);
}

TEST(Estimate, ClassifierOnSyntheticShapes) {
  const std::vector<Sample> grows = {{2, 4}, {4, 8}, {8, 16}, {16, 32}};
  const std::vector<Sample> flat = {{2, 5}, {4, 5}, {8, 5}, {16, 5}};
  EXPECT_EQ(classify_adaptivity(grows, flat), AdaptivityClass::kAdaptive);
  EXPECT_EQ(classify_adaptivity(flat, grows), AdaptivityClass::kNonAdaptive);
  EXPECT_EQ(classify_adaptivity(flat, flat), AdaptivityClass::kNonAdaptive);
  EXPECT_EQ(classify_adaptivity(grows, grows), AdaptivityClass::kNonAdaptive)
      << "n-dependence disqualifies";
}

// Measured mean critical events per passage for k contenders in an arena
// of n, deterministic round-robin schedule.
double measured_cost(const algos::LockFactory& f, int n, int k) {
  Simulator sim(static_cast<std::size_t>(n), {.track_awareness = false});
  auto lock = f.make(sim, n);
  for (int p = 0; p < k; ++p)
    sim.spawn(p, algos::run_passages(sim.proc(p), lock, 1));
  tso::run_round_robin(sim, 100'000'000);
  double total = 0;
  for (int p = 0; p < k; ++p)
    total += sim.proc(p).finished_passages().at(0).critical;
  return total / k;
}

struct Expected {
  const char* name;
  AdaptivityClass cls;
};

// Without this gtest prints the raw bytes of the struct -- the name
// pointer and the padding -- into the test name, which then changes from
// build to build. The lock name is already the test-name suffix.
void PrintTo(const Expected& e, std::ostream* os) {
  *os << bounds::to_string(e.cls);
}

class EstimateZoo : public ::testing::TestWithParam<Expected> {};

TEST_P(EstimateZoo, MeasuredClassMatchesDeclared) {
  const auto& f = algos::lock_factory(GetParam().name);
  std::vector<Sample> vs_k, vs_n;
  for (int k : {1, 2, 4, 8, 16})
    vs_k.push_back({static_cast<double>(k), measured_cost(f, 32, k)});
  for (int n : {8, 16, 32, 64})
    vs_n.push_back({static_cast<double>(n), measured_cost(f, n, 4)});
  EXPECT_EQ(classify_adaptivity(vs_k, vs_n), GetParam().cls)
      << f.name << " k-exponent " << growth_exponent(vs_k) << " n-exponent "
      << growth_exponent(vs_n);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EstimateZoo,
    ::testing::Values(Expected{"bakery", AdaptivityClass::kNonAdaptive},
                      Expected{"adaptive-bakery", AdaptivityClass::kAdaptive},
                      Expected{"adaptive-splitter",
                               AdaptivityClass::kAdaptive},
                      Expected{"lamport-fast",
                               AdaptivityClass::kNonAdaptive}),
    [](const ::testing::TestParamInfo<Expected>& info) {
      std::string name = info.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Estimate, SplitterExponentIsSuperLinear) {
  // The splitter lock's collect is Θ(k^2): the fitted exponent must exceed
  // the active-set bakery's Θ(k).
  const auto& splitter = algos::lock_factory("adaptive-splitter");
  const auto& bakery = algos::lock_factory("adaptive-bakery");
  std::vector<Sample> s_k, b_k;
  for (int k : {2, 4, 8, 16}) {
    s_k.push_back({static_cast<double>(k), measured_cost(splitter, 32, k)});
    b_k.push_back({static_cast<double>(k), measured_cost(bakery, 32, k)});
  }
  EXPECT_GT(growth_exponent(s_k), growth_exponent(b_k));
  EXPECT_NEAR(growth_exponent(b_k), 1.0, 0.4) << "linear adaptivity";
}

}  // namespace
}  // namespace tpa
