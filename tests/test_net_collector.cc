/**
 * @file
 * Tests for the sink collector and estimator bank: CRC rejection,
 * dedup, reordering, skip-ahead, and the subsystem's core round-trip
 * property — under any seeded fault configuration with loss < 1 and
 * retransmissions on, the sink reassembles the mote's trace
 * byte-identically and its online estimate equals a direct
 * StreamingEstimator run to within 1e-12.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "net/collector.hh"
#include "net/uplink.hh"
#include "sim/machine.hh"
#include "tomography/streaming.hh"
#include "trace/wire_format.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::net;

namespace {

struct MoteFixture
{
    workloads::Workload workload;
    sim::SimConfig config;
    sim::LoweredModule lowered;
    sim::RunResult run;

    explicit MoteFixture(const std::string &name, size_t samples)
        : workload(workloads::workloadByName(name))
    {
        config.timingProbes = true;
        lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(31);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 32);
        run = simulator.run(workload.entry, samples);
    }

    EstimatorBank
    makeBank() const
    {
        return EstimatorBank(*workload.module, lowered, config.costs,
                             config.policy, config.cyclesPerTick, {},
                             sim::nestedProbeCycles(config.costs));
    }
};

/** Offer packets to the sink in a given order of indices. */
void
offerAll(SinkCollector &sink, const std::vector<Packet> &packets,
         const std::vector<size_t> &order)
{
    for (size_t i : order)
        ASSERT_TRUE(sink.offer(serializePacket(packets[i])).has_value());
}

} // namespace

TEST(NetCollector, LosslessReassemblyAssignsInvocations)
{
    MoteFixture fx("event_dispatch", 300);
    auto packets = packetizeTrace(fx.run.trace, 5, kDefaultMtu);

    SinkCollector sink;
    std::vector<size_t> in_order(packets.size());
    for (size_t i = 0; i < packets.size(); ++i)
        in_order[i] = i;
    offerAll(sink, packets, in_order);
    sink.finalize(5);

    const auto &got = sink.traceFor(5);
    ASSERT_EQ(got.size(), fx.run.trace.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].proc, fx.run.trace[i].proc);
        EXPECT_EQ(got[i].invocation, fx.run.trace[i].invocation);
        EXPECT_EQ(got[i].durationTicks(), fx.run.trace[i].durationTicks());
    }
    EXPECT_EQ(sink.stats().recordsDelivered, fx.run.trace.size());
    EXPECT_EQ(sink.stats().duplicates, 0u);
}

TEST(NetCollector, OutOfOrderAndDuplicatedPacketsReassembleExactly)
{
    MoteFixture fx("collection_tree", 250);
    auto packets = packetizeTrace(fx.run.trace, 2, kDefaultMtu);
    ASSERT_GT(packets.size(), 4u);

    // A fixed shuffle plus duplicates of every other packet. Skipping
    // is disabled: this exercises pure buffering/reassembly, and the
    // evens-first order deliberately buffers half the stream at once.
    std::vector<size_t> order;
    for (size_t i = 0; i < packets.size(); i += 2)
        order.push_back(i);
    for (size_t i = 1; i < packets.size(); i += 2)
        order.push_back(i);
    for (size_t i = 0; i < packets.size(); i += 2)
        order.push_back(i); // redeliveries

    CollectorConfig no_skip;
    no_skip.skipAheadPackets = 0;
    SinkCollector sink(no_skip);
    offerAll(sink, packets, order);
    sink.finalize(2);

    EXPECT_EQ(sink.stats().duplicates, (packets.size() + 1) / 2);
    EXPECT_EQ(trace::encodeTrace(sink.traceFor(2)),
              trace::encodeTrace(fx.run.trace));
}

TEST(NetCollector, CorruptFramesCountedNeverDecoded)
{
    MoteFixture fx("blink", 50);
    auto packets = packetizeTrace(fx.run.trace, 1, kDefaultMtu);

    SinkCollector sink;
    for (const auto &packet : packets) {
        auto frame = serializePacket(packet);
        frame[frame.size() / 2] ^= 0x40;
        EXPECT_FALSE(sink.offer(frame).has_value());
    }
    EXPECT_EQ(sink.stats().rejected, packets.size());
    EXPECT_EQ(sink.stats().recordsDelivered, 0u);
    EXPECT_TRUE(sink.traceFor(1).empty());
}

TEST(NetCollector, SkipAheadBoundsBufferingAndMarksStale)
{
    MoteFixture fx("event_dispatch", 400);
    auto packets = packetizeTrace(fx.run.trace, 8, kDefaultMtu);
    CollectorConfig config;
    config.skipAheadPackets = 4;
    SinkCollector sink(config);

    // Packet 0 never arrives; once more than 4 packets buffer up the
    // sink abandons seq 0 and releases the rest in order.
    ASSERT_GT(packets.size(), 7u);
    std::vector<size_t> order;
    for (size_t i = 1; i < packets.size(); ++i)
        order.push_back(i);
    offerAll(sink, packets, order);
    sink.finalize(8);

    EXPECT_EQ(sink.stats().skippedPackets, 1u);
    // The lost packet arriving late is stale, not delivered: its
    // records would otherwise land out of order behind seq 1..n.
    auto ack = sink.offer(serializePacket(packets[0]));
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(sink.stats().stale, 1u);

    std::vector<trace::TimingRecord> lost;
    ASSERT_TRUE(decodePayload(packets[0].payload, lost));
    EXPECT_EQ(sink.traceFor(8).size(), fx.run.trace.size() - lost.size());
}

TEST(NetCollector, AcksReportCumulativeAndSelectiveState)
{
    MoteFixture fx("event_dispatch", 200);
    auto packets = packetizeTrace(fx.run.trace, 4, kDefaultMtu);
    ASSERT_GT(packets.size(), 3u);

    SinkCollector sink;
    auto ack0 = sink.offer(serializePacket(packets[0]));
    ASSERT_TRUE(ack0.has_value());
    EXPECT_EQ(ack0->nextExpected, 1u);
    EXPECT_TRUE(ack0->selective.empty());

    auto ack2 = sink.offer(serializePacket(packets[2]));
    ASSERT_TRUE(ack2.has_value());
    EXPECT_EQ(ack2->nextExpected, 1u); // 1 still missing
    ASSERT_EQ(ack2->selective.size(), 1u);
    EXPECT_EQ(ack2->selective[0], 2u);

    auto ack1 = sink.offer(serializePacket(packets[1]));
    ASSERT_TRUE(ack1.has_value());
    EXPECT_EQ(ack1->nextExpected, 3u); // gap closed, 2 drained
    EXPECT_TRUE(ack1->selective.empty());
}

TEST(NetCollector, RoundTripPropertyUnderSeededFaultConfigs)
{
    // The acceptance property: loss < 1 with retransmissions on means
    // the transfer completes, the reassembled trace is byte-identical,
    // and the sink's online estimate equals a direct
    // StreamingEstimator over the mote-side durations to 1e-12.
    MoteFixture fx("event_dispatch", 600);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    std::vector<double> no_callees(fx.workload.module->procedureCount(), 0.0);
    tomography::TimingModel direct_model(
        fx.workload.entryProc(), fx.lowered.procs[fx.workload.entry],
        fx.config.costs, fx.config.policy, fx.config.cyclesPerTick,
        no_callees, sim::nestedProbeCycles(fx.config.costs));
    tomography::StreamingEstimator direct(direct_model);
    direct.observeAll(durations);

    struct Case
    {
        const char *name;
        ChannelConfig channel;
    };
    std::vector<Case> cases;
    cases.push_back({"clean", {}});
    {
        ChannelConfig c;
        c.dropRate = 0.3;
        c.duplicateRate = 0.1;
        c.reorderWindow = 5;
        c.bitFlipRate = 0.1;
        cases.push_back({"noisy", c});
    }
    {
        ChannelConfig c;
        c.dropRate = 0.5;
        c.reorderWindow = 2;
        c.burstLoss = true;
        cases.push_back({"bursty-half-loss", c});
    }

    for (const auto &test_case : cases) {
        UplinkConfig uplink;
        uplink.maxRetries = 64; // generous budget: loss < 1 must complete
        EstimatorBank bank = fx.makeBank();
        SinkCollector sink;
        sink.setRecordSink(bank.sink());
        auto outcome = transferTrace(fx.run.trace, 9, kDefaultMtu,
                                     test_case.channel, uplink, sink, 77);

        EXPECT_TRUE(outcome.complete) << test_case.name;
        EXPECT_EQ(trace::encodeTrace(sink.traceFor(9)),
                  trace::encodeTrace(fx.run.trace))
            << test_case.name;

        auto theta = bank.theta(9, fx.workload.entry);
        ASSERT_EQ(theta.size(), direct.theta().size()) << test_case.name;
        for (size_t b = 0; b < theta.size(); ++b)
            EXPECT_NEAR(theta[b], direct.theta()[b], 1e-12)
                << test_case.name << " b" << b;
        const auto *entry_est = bank.find(9, fx.workload.entry);
        ASSERT_NE(entry_est, nullptr) << test_case.name;
        EXPECT_EQ(entry_est->observations(), direct.observations())
            << test_case.name;
    }
}

TEST(NetCollector, EstimatorBankKeepsMotesIsolated)
{
    MoteFixture fx("event_dispatch", 300);

    EstimatorBank bank = fx.makeBank();
    SinkCollector sink;
    sink.setRecordSink(bank.sink());

    // The same trace from two motes: each gets its own estimator, and
    // both converge to the same theta independently.
    for (uint16_t mote : {uint16_t(1), uint16_t(2)}) {
        auto outcome =
            transferTrace(fx.run.trace, mote, kDefaultMtu, {}, {}, sink, 5);
        EXPECT_TRUE(outcome.complete);
    }
    auto theta1 = bank.theta(1, fx.workload.entry);
    auto theta2 = bank.theta(2, fx.workload.entry);
    ASSERT_EQ(theta1.size(), theta2.size());
    ASSERT_FALSE(theta1.empty());
    for (size_t b = 0; b < theta1.size(); ++b)
        EXPECT_DOUBLE_EQ(theta1[b], theta2[b]);

    EXPECT_EQ(bank.find(3, fx.workload.entry), nullptr);
    EXPECT_TRUE(bank.theta(3, fx.workload.entry).empty());
}
