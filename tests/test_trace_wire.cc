/**
 * @file
 * Tests for the on-air timing-report wire format.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "cfg_fuzz.hh"
#include "sim/machine.hh"
#include "stats/rng.hh"
#include "tomography/estimator.hh"
#include "trace/wire_format.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::trace;

TEST(Varint, RoundTripsBoundaries)
{
    for (uint64_t value :
         {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
          0xffffffffffffffffull}) {
        std::vector<uint8_t> buffer;
        appendVarint(buffer, value);
        size_t cursor = 0;
        uint64_t decoded = 0;
        ASSERT_TRUE(readVarint(buffer, cursor, decoded));
        EXPECT_EQ(decoded, value);
        EXPECT_EQ(cursor, buffer.size());
    }
}

TEST(Varint, SmallValuesAreOneByte)
{
    std::vector<uint8_t> buffer;
    appendVarint(buffer, 42);
    EXPECT_EQ(buffer.size(), 1u);
}

TEST(Varint, TruncatedInputRejected)
{
    std::vector<uint8_t> buffer = {0x80}; // continuation with no next byte
    size_t cursor = 0;
    uint64_t value = 0;
    EXPECT_FALSE(readVarint(buffer, cursor, value));
}

TEST(Zigzag, RoundTripsSignedValues)
{
    for (int64_t value : {0ll, 1ll, -1ll, 63ll, -64ll, 1'000'000ll,
                          -1'000'000ll}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(value)), value);
    }
    // Small magnitudes stay small after encoding.
    EXPECT_LE(zigzagEncode(-1), 2u);
    EXPECT_LE(zigzagEncode(1), 2u);
}

TEST(WireFormat, RoundTripsSimulatedTrace)
{
    auto workload = workloads::workloadByName("collection_tree");
    sim::SimConfig config;
    auto inputs = workload.makeInputs(4);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 5);
    auto run = simulator.run(workload.entry, 500);

    auto bytes = encodeTrace(run.trace);
    TimingTrace decoded;
    ASSERT_TRUE(decodeTrace(bytes, decoded));
    ASSERT_EQ(decoded.size(), run.trace.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
        EXPECT_EQ(decoded[i].proc, run.trace[i].proc);
        EXPECT_EQ(decoded[i].startTick, run.trace[i].startTick);
        EXPECT_EQ(decoded[i].endTick, run.trace[i].endTick);
        EXPECT_EQ(decoded[i].invocation, run.trace[i].invocation);
        EXPECT_EQ(decoded[i].trueCycles, 0u); // oracle stays home
    }
}

TEST(WireFormat, CompactForRealTraffic)
{
    auto workload = workloads::workloadByName("sense_and_send");
    sim::SimConfig config;
    config.cyclesPerTick = 8;
    auto inputs = workload.makeInputs(4);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 5);
    auto run = simulator.run(workload.entry, 1000);

    // Naive encoding would be >= 12 bytes per record (proc + two 32-bit
    // timestamps); delta varints should land well under half that.
    double bytes = bytesPerRecord(run.trace);
    EXPECT_GT(bytes, 0.0);
    EXPECT_LT(bytes, 6.0);
}

TEST(WireFormat, EstimationWorksFromDecodedTrace)
{
    // End-to-end: the sink only ever sees the wire bytes; estimation
    // from the decoded trace must equal estimation from the original.
    auto workload = workloads::workloadByName("event_dispatch");
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    auto inputs = workload.makeInputs(4);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 5);
    auto run = simulator.run(workload.entry, 1500);

    TimingTrace decoded;
    ASSERT_TRUE(decodeTrace(encodeTrace(run.trace), decoded));

    auto lowered = sim::lowerModule(*workload.module);
    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Em, {});
    auto from_original = tomography::estimateModule(
        *workload.module, lowered, config.costs, config.policy, 1,
        sim::nestedProbeCycles(config.costs), run.trace, *estimator);
    auto from_decoded = tomography::estimateModule(
        *workload.module, lowered, config.costs, config.policy, 1,
        sim::nestedProbeCycles(config.costs), decoded, *estimator);

    const auto &a = from_original.thetas[workload.entry];
    const auto &b = from_decoded.thetas[workload.entry];
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(WireFormat, MalformedInputRejectedCleanly)
{
    TimingTrace out;
    EXPECT_FALSE(decodeTrace({0x01}, out)); // record cut short
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(decodeTrace({}, out)); // empty is fine
    EXPECT_TRUE(out.empty());
}

TEST(WireFormat, EmptyTraceIsZeroBytes)
{
    TimingTrace trace;
    EXPECT_TRUE(encodeTrace(trace).empty());
    EXPECT_DOUBLE_EQ(bytesPerRecord(trace), 0.0);
}

TEST(WireFormat, RecordDecodeDistinguishesTruncationFromCorruption)
{
    TimingRecord record;
    record.proc = 3;
    record.startTick = 100;
    record.endTick = 140;
    std::vector<uint8_t> bytes;
    int64_t enc_prev = 0;
    appendRecord(bytes, record, enc_prev);

    // Every strict prefix is NeedMore (a valid partial stream), with
    // the cursor restored so a streaming caller can retry later.
    for (size_t n = 0; n < bytes.size(); ++n) {
        std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
        size_t cursor = 0;
        int64_t prev = 0;
        TimingRecord out;
        EXPECT_EQ(decodeRecord(prefix, cursor, prev, out),
                  RecordDecode::NeedMore)
            << "prefix " << n;
        EXPECT_EQ(cursor, 0u);
        EXPECT_EQ(prev, 0);
    }
    size_t cursor = 0;
    int64_t prev = 0;
    TimingRecord out;
    ASSERT_EQ(decodeRecord(bytes, cursor, prev, out), RecordDecode::Ok);
    EXPECT_EQ(out.proc, record.proc);
    EXPECT_EQ(out.durationTicks(), record.durationTicks());
    EXPECT_EQ(cursor, bytes.size());
}

namespace {

/** Encode (proc, gap, duration) as raw varints, bypassing the caps. */
std::vector<uint8_t>
rawRecord(uint64_t proc, uint64_t zigzag_gap, uint64_t duration)
{
    std::vector<uint8_t> bytes;
    appendVarint(bytes, proc);
    appendVarint(bytes, zigzag_gap);
    appendVarint(bytes, duration);
    return bytes;
}

} // namespace

TEST(WireFormat, AdversarialValuesRejectedWithoutOverReserving)
{
    TimingTrace out;
    // Proc id beyond the cap: would otherwise size an invocation
    // counter table from attacker-controlled input.
    EXPECT_FALSE(decodeTrace(rawRecord(kMaxWireProc + 1, 0, 1), out));
    EXPECT_TRUE(out.empty());
    // Absurd duration / gap magnitudes (still valid varints).
    EXPECT_FALSE(decodeTrace(rawRecord(1, 0, kMaxWireTicks + 1), out));
    EXPECT_FALSE(
        decodeTrace(rawRecord(1, zigzagEncode(-int64_t(kMaxWireTicks) - 1), 1),
                    out));
    // Tick arithmetic that would overflow int64 if trusted.
    EXPECT_FALSE(decodeTrace(rawRecord(1, 0xffffffffffffffffull, 1), out));
    // Values at the caps are fine.
    EXPECT_TRUE(decodeTrace(rawRecord(kMaxWireProc, 0, kMaxWireTicks), out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].proc, kMaxWireProc);
}

TEST(WireFormat, OverlongVarintRejected)
{
    // Eleven continuation bytes: more than a uint64 can carry.
    std::vector<uint8_t> overlong(11, 0x80);
    overlong.push_back(0x01);
    size_t cursor = 0;
    uint64_t value = 0;
    EXPECT_FALSE(readVarint(overlong, cursor, value));
    TimingTrace out;
    EXPECT_FALSE(decodeTrace(overlong, out));
}

TEST(WireFormatFuzz, EveryTruncationOfRealTracesFailsCleanly)
{
    Rng rng(2024);
    for (int round = 0; round < 5; ++round) {
        auto program = testutil::makeFuzzProgram(rng);
        sim::SimConfig config;
        config.timingProbes = true;
        auto inputs = program.makeInputs(rng.next());
        sim::Simulator simulator(*program.module,
                                 sim::lowerModule(*program.module), config,
                                 *inputs, rng.next());
        auto run = simulator.run(program.entry, 40);
        auto bytes = encodeTrace(run.trace);
        ASSERT_FALSE(bytes.empty());

        for (size_t n = 0; n < bytes.size(); ++n) {
            std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
            TimingTrace decoded;
            bool ok = decodeTrace(prefix, decoded);
            // A prefix either cuts a record (rejected, trace cleared)
            // or lands exactly on a record boundary (shorter trace).
            if (ok)
                EXPECT_LE(decoded.size(), run.trace.size());
            else
                EXPECT_TRUE(decoded.empty());
        }
    }
}

TEST(WireFormatFuzz, RandomMutationsNeverCrashOrOverAllocate)
{
    Rng rng(77);
    auto program = testutil::makeFuzzProgram(rng);
    sim::SimConfig config;
    config.timingProbes = true;
    auto inputs = program.makeInputs(3);
    sim::Simulator simulator(*program.module,
                             sim::lowerModule(*program.module), config,
                             *inputs, 4);
    auto run = simulator.run(program.entry, 60);
    auto clean = encodeTrace(run.trace);

    for (int round = 0; round < 2'000; ++round) {
        auto bytes = clean;
        size_t mutations = 1 + rng.below(4);
        for (size_t m = 0; m < mutations; ++m)
            bytes[rng.below(bytes.size())] = uint8_t(rng.below(256));
        TimingTrace decoded;
        if (decodeTrace(bytes, decoded)) {
            // Whatever decoded stayed within the hardened caps.
            for (const auto &record : decoded.records()) {
                EXPECT_LE(uint64_t(record.proc), kMaxWireProc);
                EXPECT_LE(uint64_t(std::abs(record.durationTicks())),
                          kMaxWireTicks);
            }
        } else {
            EXPECT_TRUE(decoded.empty());
        }
    }
}

TEST(WireFormatFuzz, RandomByteStringsFailCleanly)
{
    Rng rng(4242);
    for (int round = 0; round < 2'000; ++round) {
        std::vector<uint8_t> bytes(rng.below(64));
        for (auto &b : bytes)
            b = uint8_t(rng.below(256));
        TimingTrace decoded;
        if (!decodeTrace(bytes, decoded)) {
            EXPECT_TRUE(decoded.empty());
        }
    }
}
