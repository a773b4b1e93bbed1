/**
 * @file
 * Properties of the radio packet layer and sink collector (net/): the
 * framed round-trip is the identity at any legal MTU, the CRC catches
 * every 1-3 bit corruption the channel can inject, and the collector
 * delivers in order under arbitrary reordering/duplication and loses
 * exactly the dropped packets' records under arbitrary loss.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "check/gen.hh"
#include "check/oracles.hh"
#include "net/collector.hh"
#include "net/packet.hh"

#include "prop_util.hh"

namespace {

using namespace ct;

constexpr size_t kMinMtu = net::kHeaderBytes + 16; // header + worst record

/**
 * Modest trace sized for packet-level checks. No cap-hugging ticks:
 * fuzzing with them found (and net/packet.hh now documents) that the
 * per-packet delta restart encodes each packet's first record at its
 * *absolute* start tick, so packetization's premise is |startTick| <=
 * kMaxWireTicks — the wire suite owns the cap edges, this suite stays
 * inside the premise.
 */
trace::TimingTrace
genPacketTrace(Rng &rng)
{
    check::TraceGenConfig config;
    config.maxRecords = 30;
    config.nastyProb = 0.0;
    return check::genTrace(rng, config);
}

/** In-place Fisher-Yates shuffle driven by the case Rng. */
template <typename T>
void
shuffle(Rng &rng, std::vector<T> &v)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng.below(i))]);
}

std::string
describeRecords(const std::vector<trace::TimingRecord> &records)
{
    std::string out = std::to_string(records.size()) + " records";
    for (size_t i = 0; i < records.size() && i < 8; ++i)
        out += " (p" + std::to_string(records[i].proc) + " " +
               std::to_string(records[i].startTick) + ".." +
               std::to_string(records[i].endTick) + ")";
    return out;
}

TEST(PropPacketNet, FramedRoundTripIdentityAtAnyMtu)
{
    struct Case
    {
        trace::TimingTrace trace;
        size_t mtu = net::kDefaultMtu;
        uint16_t mote = 1;
    };
    CT_EXPECT_PROP(check::forAll<Case>(
        "Packet.FramedRoundTripIdentityAtAnyMtu",
        [](Rng &rng) {
            Case c;
            c.trace = genPacketTrace(rng);
            c.mtu = kMinMtu + size_t(rng.below(64));
            c.mote = uint16_t(rng.below(0x10000));
            return c;
        },
        [](const Case &c) {
            return check::packetRoundTripOracle(c.trace, c.mote, c.mtu);
        },
        [](const Case &c) {
            std::vector<Case> out;
            for (auto &t : check::shrinkTrace(c.trace)) {
                Case smaller = c;
                smaller.trace = std::move(t);
                out.push_back(std::move(smaller));
            }
            if (c.mtu != net::kDefaultMtu) {
                Case smaller = c;
                smaller.mtu = net::kDefaultMtu;
                out.push_back(smaller);
            }
            return out;
        },
        [](const Case &c) {
            return "mtu=" + std::to_string(c.mtu) + " mote=" +
                   std::to_string(c.mote) + " " + check::showTrace(c.trace);
        },
        {.iterations = 120}));
}

TEST(PropPacketNet, CrcCatchesUpToThreeBitFlips)
{
    // CRC-16/CCITT-FALSE has Hamming distance 4 on frames this short,
    // so *every* 1-3 bit corruption must fail validation — the exact
    // corruption model the channel simulator injects.
    CT_EXPECT_PROP(check::forAll<uint64_t>(
        "Packet.CrcCatchesUpToThreeBitFlips",
        [](Rng &rng) { return rng.next(); },
        [](const uint64_t &seed) -> std::optional<std::string> {
            Rng rng(seed);
            auto trace = genPacketTrace(rng);
            auto packets = net::packetizeTrace(trace, 3);
            if (packets.empty())
                return check::skipCase();
            const auto &packet =
                packets[size_t(rng.below(packets.size()))];
            auto frame = net::serializePacket(packet);
            size_t flips = 1 + size_t(rng.below(3));
            check::flipDistinctBits(rng, frame, flips);
            net::Packet parsed;
            if (net::parsePacket(frame, parsed))
                return std::to_string(flips) +
                       " bit flips slipped past frame validation (seq " +
                       std::to_string(packet.seq) + ")";
            return std::nullopt;
        },
        nullptr,
        [](const uint64_t &seed) {
            return "inner seed " + std::to_string(seed);
        },
        {.iterations = 200}));
}

TEST(PropPacketNet, CollectorDeliversInOrderUnderReorderAndDup)
{
    // Any permutation of the frames, with arbitrary duplication, must
    // reassemble the exact mote trace once every packet has arrived —
    // and the record sink must see the same records the trace keeps.
    CT_EXPECT_PROP(check::forAll<uint64_t>(
        "Collector.InOrderUnderReorderAndDup",
        [](Rng &rng) { return rng.next(); },
        [](const uint64_t &seed) -> std::optional<std::string> {
            Rng rng(seed);
            auto trace = genPacketTrace(rng);
            const uint16_t mote = uint16_t(1 + rng.below(100));
            auto packets = net::packetizeTrace(trace, mote, 32);

            std::vector<std::vector<uint8_t>> frames;
            for (const auto &p : packets) {
                frames.push_back(net::serializePacket(p));
                while (rng.bernoulli(0.3))
                    frames.push_back(frames.back());
            }
            shuffle(rng, frames);

            net::CollectorConfig config;
            config.skipAheadPackets = 0;
            net::SinkCollector collector(config);
            std::vector<trace::TimingRecord> sunk;
            collector.setRecordSink(
                [&](uint16_t m, const trace::TimingRecord &r) {
                    if (m == mote)
                        sunk.push_back(r);
                });
            for (const auto &frame : frames)
                if (!collector.offer(frame))
                    return "a clean frame failed validation";
            collector.finalize(mote);

            if (collector.packetsAccepted(mote) != packets.size())
                return "accepted " +
                       std::to_string(collector.packetsAccepted(mote)) +
                       " of " + std::to_string(packets.size()) +
                       " distinct packets";
            uint64_t extra_copies = frames.size() - packets.size();
            if (collector.stats().duplicates != extra_copies)
                return "duplicate count " +
                       std::to_string(collector.stats().duplicates) +
                       " != extra copies sent " +
                       std::to_string(extra_copies);

            const auto &delivered = collector.traceFor(mote);
            if (delivered.size() != trace.size())
                return "delivered " + std::to_string(delivered.size()) +
                       " records, sent " + std::to_string(trace.size());
            for (size_t i = 0; i < trace.size(); ++i) {
                const auto &want = trace[i];
                const auto &got = delivered[i];
                if (got.proc != want.proc ||
                    got.startTick != want.startTick ||
                    got.endTick != want.endTick ||
                    got.invocation != want.invocation)
                    return "record " + std::to_string(i) +
                           " differs after reassembly";
                if (sunk.size() <= i || sunk[i].startTick != want.startTick)
                    return "record sink diverged from the mote trace at " +
                           std::to_string(i);
            }
            return std::nullopt;
        },
        nullptr, nullptr, {.iterations = 80}));
}

TEST(PropPacketNet, CollectorLossIsExactlyPerPacket)
{
    // Self-contained payloads mean a lost packet costs exactly its own
    // records: deliver an arbitrary subset in order, and the output
    // must equal the concatenation of the surviving payloads.
    CT_EXPECT_PROP(check::forAll<uint64_t>(
        "Collector.LossIsExactlyPerPacket",
        [](Rng &rng) { return rng.next(); },
        [](const uint64_t &seed) -> std::optional<std::string> {
            Rng rng(seed);
            auto trace = genPacketTrace(rng);
            const uint16_t mote = 9;
            auto packets = net::packetizeTrace(trace, mote, 32);

            std::vector<trace::TimingRecord> expected;
            net::SinkCollector collector; // default skip-ahead
            for (const auto &p : packets) {
                if (rng.bernoulli(0.3))
                    continue; // dropped on the air
                collector.offer(net::serializePacket(p));
                if (!net::decodePayload(p.payload, expected))
                    return "honest payload failed to decode";
            }
            collector.finalize(mote);

            // The collector assigns invocations in delivery order.
            std::vector<uint64_t> counters;
            for (auto &r : expected) {
                if (counters.size() <= r.proc)
                    counters.resize(r.proc + 1, 0);
                r.invocation = counters[r.proc]++;
            }

            const auto &delivered = collector.traceFor(mote);
            if (delivered.size() != expected.size())
                return "delivered " + std::to_string(delivered.size()) +
                       " records, surviving packets carry " +
                       std::to_string(expected.size());
            for (size_t i = 0; i < expected.size(); ++i) {
                const auto &want = expected[i];
                const auto &got = delivered[i];
                if (got.proc != want.proc ||
                    got.startTick != want.startTick ||
                    got.endTick != want.endTick ||
                    got.invocation != want.invocation)
                    return "record " + std::to_string(i) +
                           " differs from surviving-payload expectation: " +
                           describeRecords({got}) + " vs " +
                           describeRecords({want});
            }
            if (collector.stats().recordsDelivered != delivered.size())
                return "recordsDelivered stat disagrees with the trace";
            return std::nullopt;
        },
        nullptr, nullptr, {.iterations = 80}));
}

} // namespace
