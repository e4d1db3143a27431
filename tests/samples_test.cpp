//===- tests/samples_test.cpp - Shipped PML sample programs ---------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Runs every .pml sample shipped in examples/pml/ end to end (the path is
// injected by CMake), so the samples cannot rot. Expected outputs are
// pinned where the programs are deterministic.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "pml/Vm.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace mpl;

#ifndef MPL_SAMPLES_DIR
#error "MPL_SAMPLES_DIR must be defined by the build"
#endif

namespace {

struct SampleResult {
  bool Ok = false;
  std::string Output;
  std::string Error;
};

SampleResult runSample(const std::string &Name, int Workers) {
  SampleResult R;
  std::ifstream In(std::string(MPL_SAMPLES_DIR) + "/" + Name);
  if (!In) {
    R.Error = "cannot open sample " + Name;
    return R;
  }
  std::stringstream Ss;
  Ss << In.rdbuf();

  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  rt::Runtime Rt(Cfg);
  Rt.run([&] {
    std::string Rendered, TypeStr;
    std::vector<std::string> Errors;
    R.Ok = pml::evalSource(Ss.str(), R.Output, Rendered, TypeStr, Errors);
    if (!Errors.empty())
      R.Error = Errors[0];
  });
  return R;
}

class SamplesTest : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(SamplesTest, Fib) {
  SampleResult R = runSample("fib.pml", GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "317811\n");
}

TEST_P(SamplesTest, Counter) {
  SampleResult R = runSample("counter.pml", GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  // The two branches race on the shared counter (see the sample's note):
  // any value in [1000, 2000] is a legal outcome; memory safety is the
  // property under test.
  int64_t V = std::strtoll(R.Output.c_str(), nullptr, 10);
  EXPECT_GE(V, 1000);
  EXPECT_LE(V, 2000);
}

TEST_P(SamplesTest, ArrayMergesort) {
  SampleResult R = runSample("mergesort.pml", GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output.substr(0, 7), "sorted\n");
}

TEST_P(SamplesTest, Generator) {
  SampleResult R = runSample("generator.pml", GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  // Both sums are deterministic at any worker count; the second handler
  // resumes every captured continuation inside a par branch.
  EXPECT_EQ(R.Output, "5050\n1225\n");
}

TEST_P(SamplesTest, ListMergesort) {
  SampleResult R = runSample("listsort.pml", GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "sorted\n2000\n");
}

INSTANTIATE_TEST_SUITE_P(Workers, SamplesTest, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });
