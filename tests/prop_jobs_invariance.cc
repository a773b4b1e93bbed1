/**
 * @file
 * The determinism contract of the parallel execution engine
 * (exec/thread_pool.hh) as a property: jobs=1 and jobs=N must be
 * *bitwise* equal — thetas compared with exact ==, cycle counts,
 * traces, channel statistics — on both the pipeline's placement
 * fan-out and a lossy fleet campaign's per-shard fan-out
 * (check/oracles.hh). Any scheduler-order dependence, shared-Rng
 * draw, or accumulation-order float difference fails this suite.
 */

#include <string>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "check/oracles.hh"
#include "workloads/workload.hh"

#include "prop_util.hh"

namespace {

using namespace ct;

struct JobsCase
{
    std::string workload;
    uint64_t seed = 0;
    size_t jobs = 2;
};

JobsCase
genJobsCase(Rng &rng)
{
    static const std::vector<std::string> names =
        workloads::workloadNames();
    JobsCase c;
    c.workload = names[size_t(rng.below(names.size()))];
    c.seed = rng.next();
    c.jobs = 2 + size_t(rng.below(3));
    return c;
}

std::string
showJobsCase(const JobsCase &c)
{
    return "{workload=" + c.workload + " seed=" + std::to_string(c.seed) +
           " jobs=" + std::to_string(c.jobs) + "}";
}

TEST(PropJobsInvariance, PipelineIsBitwiseJobsInvariant)
{
    CT_EXPECT_PROP(check::forAll<JobsCase>(
        "Jobs.PipelineBitwiseInvariant", genJobsCase,
        [](const JobsCase &c) {
            return check::pipelineJobsInvarianceOracle(c.workload, c.seed,
                                                       200, 300, c.jobs);
        },
        nullptr, showJobsCase, {.iterations = 3}));
}

TEST(PropJobsInvariance, FleetIsBitwiseJobsInvariantUnderLoss)
{
    // The fleet fans out whole shards, each mote with its own lossy
    // channel; per-mote seeds must derive from the mote id, never the
    // thread or the shard.
    CT_EXPECT_PROP(check::forAll<JobsCase>(
        "Jobs.FleetBitwiseInvariantUnderLoss", genJobsCase,
        [](const JobsCase &c) {
            net::ChannelConfig channel;
            channel.dropRate = 0.15;
            channel.duplicateRate = 0.1;
            channel.reorderWindow = 3;
            channel.bitFlipRate = 0.05;
            return check::fleetJobsInvarianceOracle(c.workload, c.seed, 3,
                                                    120, channel, c.jobs);
        },
        nullptr, showJobsCase, {.iterations = 2}));
}

} // namespace
