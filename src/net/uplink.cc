#include "net/uplink.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace ct::net {

namespace {

/** Rounds between a packet's first send and its first retransmit;
 *  each retransmit doubles the wait, up to kMaxBackoffRounds. */
constexpr uint64_t kBackoffRounds = 1;
constexpr uint64_t kMaxBackoffRounds = 64;

} // namespace

MoteUplink::MoteUplink(std::vector<Packet> packets,
                       const UplinkConfig &config)
    : config_(config)
{
    CT_ASSERT(config.window > 0, "uplink window must be positive");
    slots_.reserve(packets.size());
    for (auto &packet : packets) {
        Slot slot;
        slot.packet = std::move(packet);
        slot.backoff = kBackoffRounds;
        slots_.push_back(std::move(slot));
    }
}

std::vector<Packet>
MoteUplink::poll(uint64_t round)
{
    while (base_ < slots_.size() && slots_[base_].finished())
        ++base_;

    // Classic selective-repeat: the window is anchored at the lowest
    // unfinished sequence number. Nothing past base_ + window - 1 is
    // ever offered, which bounds the sink's out-of-order buffer to
    // window - 1 packets — so (with skipAheadPackets > window) the
    // collector's skip-ahead can only ever fire for packets this
    // sender has actually abandoned, never for one it still intends
    // to retransmit. That invariant is what makes "retransmits on,
    // loss < 1" imply byte-identical reassembly.
    std::vector<Packet> out;
    for (size_t i = base_;
         i < slots_.size() && i < base_ + config_.window; ++i) {
        Slot &slot = slots_[i];
        if (slot.finished())
            continue;
        if (slot.nextAttempt > round)
            continue;
        if (slot.attempts > config_.maxRetries) {
            // Budget exhausted: abandon; the sink's skip-ahead will
            // resume the stream past this sequence number.
            slot.abandoned = true;
            ++stats_.giveUps;
            continue;
        }
        ++slot.attempts;
        ++stats_.transmissions;
        if (slot.attempts > 1)
            ++stats_.retransmissions;
        slot.nextAttempt = round + slot.backoff;
        slot.backoff = std::min(slot.backoff * 2, kMaxBackoffRounds);
        out.push_back(slot.packet);
        if (!config_.retransmit)
            slot.abandoned = true; // fire-and-forget: one shot each
    }
    return out;
}

void
MoteUplink::onAck(const Ack &ack)
{
    ++stats_.acksHeard;
    for (Slot &slot : slots_) {
        if (slot.acked)
            continue;
        if (slot.packet.seq < ack.nextExpected)
            slot.acked = true;
    }
    for (uint32_t seq : ack.selective) {
        if (seq < slots_.size() && !slots_[seq].acked)
            slots_[seq].acked = true;
    }
}

bool
MoteUplink::done() const
{
    for (size_t i = base_; i < slots_.size(); ++i) {
        if (!slots_[i].finished())
            return false;
    }
    return true;
}

bool
MoteUplink::complete() const
{
    return std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot &slot) { return slot.acked; });
}

TransferOutcome
transferTrace(const trace::TimingTrace &trace, uint16_t mote, size_t mtu,
              const ChannelConfig &channel_config,
              const UplinkConfig &uplink_config, SinkCollector &sink,
              uint64_t seed)
{
    auto packets = packetizeTrace(trace, mote, mtu);
    TransferOutcome out;
    out.packets = packets.size();

    MoteUplink uplink(std::move(packets), uplink_config);
    LossyChannel channel(channel_config, seed);

    uint64_t round = 0;
    while (!uplink.done() && round < uplink_config.maxRounds) {
        channel.advance();
        for (const Packet &packet : uplink.poll(round))
            channel.send(serializePacket(packet));
        for (const auto &frame : channel.drain()) {
            auto ack = sink.offer(frame);
            if (ack && channel.ackSurvives())
                uplink.onAck(*ack);
        }
        ++round;
    }
    // Delayed frames still in flight when the sender stopped.
    for (const auto &frame : channel.flush())
        sink.offer(frame);
    sink.finalize(mote);

    out.rounds = round;
    out.uplink = uplink.stats();
    out.channel = channel.stats();
    out.complete = sink.packetsAccepted(mote) == out.packets;
    return out;
}

void
recordTransferMetrics(const TransferOutcome &transfer,
                      const CollectorStats &sink)
{
    auto &m = obs::metrics();
    m.counter("net.packets_sent").add(transfer.uplink.transmissions);
    m.counter("net.packets_retransmitted")
        .add(transfer.uplink.retransmissions);
    m.counter("net.packets_dropped").add(transfer.channel.dropped);
    m.counter("net.packets_duplicated").add(transfer.channel.duplicated);
    m.counter("net.packets_corrupted").add(transfer.channel.corrupted);
    m.counter("net.packets_crc_rejected").add(sink.rejected);
    m.counter("net.packets_deduped").add(sink.duplicates);
    m.counter("net.records_delivered").add(sink.recordsDelivered);
}

} // namespace ct::net
