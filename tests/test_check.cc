/**
 * @file
 * Tests for ct::check's failure report.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/check.hh"

using namespace ct;

TEST(CheckRepro, ReproLineNamesTheRunningBinary)
{
    // A property in ct_tests replays in ct_tests, filtered on the leaf
    // of its name.
    check::Failure failure;
    failure.property = "SimReference.RunsMatchBitForBit";
    failure.caseSeed = 0x2a;
    const std::string line = check::reproLine(failure);
    EXPECT_EQ(line.rfind("CT_CHECK_SEED=0x2a ", 0), 0u) << line;
    EXPECT_NE(line.find("ct_tests --gtest_filter='*RunsMatchBitForBit*'"),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find("ct_prop_tests"), std::string::npos) << line;
}
