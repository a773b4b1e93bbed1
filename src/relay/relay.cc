#include "relay/relay.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ct::relay {

ShipOutcome
shipSnapshot(const Snapshot &snapshot, const ShipConfig &config,
             uint64_t seed, SnapshotReassembler &receiver)
{
    CT_SPAN("relay.ship");
    auto image = encodeSnapshotImage(snapshot);
    auto fragments =
        fragmentSnapshot(image, snapshot.sourceNode, config.mtu);

    ShipOutcome out;
    out.fragments = fragments.size();
    out.imageBytes = image.size();

    // One channel spans every attempt, so rounds, fault draws, and
    // delayed frames carry across restarts deterministically.
    net::LossyChannel channel(config.channel, seed);
    uint64_t round = 0;
    while (out.attempts < config.maxAttempts && !receiver.complete()) {
        ++out.attempts;
        // Re-offer the full fragment set; the receiver's dedupe and
        // the first ack heard retire everything it already holds
        // (MoteUplink's selective acks are index-addressed, so the
        // uplink must see the complete, gap-free sequence).
        net::MoteUplink uplink(fragments, config.uplink);
        uint64_t attempt_rounds = 0;
        while (!uplink.done() && attempt_rounds < config.uplink.maxRounds) {
            channel.advance();
            for (const net::Packet &packet : uplink.poll(round)) {
                auto frame = net::serializePacket(packet);
                out.wireBytes += frame.size();
                channel.send(frame);
            }
            for (const auto &frame : channel.drain()) {
                auto ack = receiver.offer(frame);
                if (ack && channel.ackSurvives())
                    uplink.onAck(*ack);
            }
            ++round;
            ++attempt_rounds;
        }
        // Delayed frames still in flight when this attempt's sender
        // stopped (they may complete the transfer without a restart).
        for (const auto &frame : channel.flush())
            receiver.offer(frame);

        const auto &stats = uplink.stats();
        out.uplink.transmissions += stats.transmissions;
        out.uplink.retransmissions += stats.retransmissions;
        out.uplink.acksHeard += stats.acksHeard;
        out.uplink.giveUps += stats.giveUps;
    }
    out.rounds = round;
    out.channel = channel.stats();
    out.adopted = receiver.complete();

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("relay.snapshots_shipped").add(1);
        m.counter("relay.fragments_sent").add(out.uplink.transmissions);
        m.counter("relay.fragments_retransmitted")
            .add(out.uplink.retransmissions);
        m.counter("relay.fragments_rejected")
            .add(receiver.stats().rejected);
        m.counter("relay.bytes_on_wire").add(out.wireBytes);
        m.counter("relay.ship_rounds").add(out.rounds);
        m.counter("relay.ship_attempts").add(out.attempts);
        m.counter(out.adopted ? "relay.snapshots_adopted"
                              : "relay.snapshots_rejected")
            .add(1);
    }
    return out;
}

std::optional<Snapshot>
shipAndReceive(const Snapshot &snapshot, const ShipConfig &config,
               uint64_t seed, ShipOutcome &outcome)
{
    SnapshotReassembler receiver;
    outcome = shipSnapshot(snapshot, config, seed, receiver);
    Snapshot received;
    if (!outcome.adopted || !receiver.assemble(received)) {
        outcome.adopted = false;
        return std::nullopt;
    }
    return received;
}

void
adoptIntoBank(const Snapshot &snapshot, net::EstimatorBank &bank)
{
    CT_SPAN("relay.adopt");
    for (const auto &slot : snapshot.slots)
        bank.restoreSlot(slot.mote, slot.proc, slot.state);
    if (obs::metricsEnabled())
        obs::metrics().counter("relay.slots_adopted").add(
            snapshot.slots.size());
}

void
mergeIntoBank(const Snapshot &snapshot, net::EstimatorBank &bank)
{
    CT_SPAN("relay.merge");
    for (const auto &slot : snapshot.slots)
        bank.mergeSlot(slot.mote, slot.proc, slot.state);
    if (obs::metricsEnabled())
        obs::metrics().counter("relay.slots_merged").add(
            snapshot.slots.size());
}

void
adoptIntoStore(const Snapshot &snapshot, store::Store &store)
{
    store.writeCheckpoint(snapshot.slots);
}

} // namespace ct::relay
