// Every benchmark workload must simulate the same program at any thread
// count: at reduced size, its metrics output is byte-identical at threads=1
// and threads=4. Otherwise a thread-count change between two benchmark runs
// would compare two different simulations.
#include <gtest/gtest.h>

#include "workloads.h"

namespace {

class ThreadIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadIdentity, SameDigestAtOneAndFourThreads) {
  const std::string& name = GetParam();
  const std::string one = fleetbench::run_to_json(
      name, fleetbench::make_config(name, 42, 1, fleetbench::Size::kReduced));
  const std::string four = fleetbench::run_to_json(
      name, fleetbench::make_config(name, 42, 4, fleetbench::Size::kReduced));
  EXPECT_NE(one.find("\"rounds\""), std::string::npos);
  EXPECT_EQ(fleetbench::sha256_hex(one), fleetbench::sha256_hex(four));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ThreadIdentity,
    ::testing::ValuesIn(fleetbench::workload_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(fleetbench::make_config("nope", 42, 1), std::invalid_argument);
}

}  // namespace
