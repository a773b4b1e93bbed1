/**
 * @file
 * Mote-side uplink: reliable-enough delivery of a packetized trace
 * over the lossy channel, plus the round-based transfer driver that
 * ties uplink, channel, and collector together.
 *
 * The protocol is selective-repeat with a bounded window: each round
 * the uplink (re)transmits up to `window` unacknowledged packets
 * whose backoff has elapsed. A packet's retransmit interval doubles
 * after every attempt (exponential backoff, capped), resets on
 * nothing — acks simply mark packets done. After `maxRetries`
 * retransmissions a packet is abandoned (the sink's skip-ahead
 * recovers the stream past it). With `retransmit` off every packet is
 * sent exactly once — the fire-and-forget mode the loss-degradation
 * experiments use.
 *
 * Everything is deterministic: the uplink draws no randomness at all,
 * and the channel's draws are sequenced by the single-threaded round
 * loop, so one (trace, config, seed) reproduces bit-for-bit.
 */

#ifndef CT_NET_UPLINK_HH
#define CT_NET_UPLINK_HH

#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/collector.hh"
#include "net/packet.hh"

namespace ct::net {

/** Retransmission policy knobs. */
struct UplinkConfig
{
    /** Retransmit unacked packets? Off = send-once, fire-and-forget. */
    bool retransmit = true;
    /** Max distinct unacked packets in flight per round. */
    size_t window = 8;
    /** Retransmissions allowed per packet (beyond the first send),
     *  the wait doubling from 1 round up to 64. */
    size_t maxRetries = 16;
    /** Safety stop for the transfer driver's round loop. */
    uint64_t maxRounds = 100'000;
};

/** Sender-side accounting. */
struct UplinkStats
{
    uint64_t transmissions = 0;   //!< frames handed to the channel
    uint64_t retransmissions = 0; //!< of those, repeat attempts
    uint64_t acksHeard = 0;
    uint64_t giveUps = 0; //!< packets abandoned after maxRetries
};

/** The mote-side sender for one packetized trace. */
class MoteUplink
{
  public:
    explicit MoteUplink(std::vector<Packet> packets,
                        const UplinkConfig &config = {});

    /** Packets to transmit in @p round (attempts are recorded). */
    std::vector<Packet> poll(uint64_t round);

    /** Fold in an ack heard from the sink. */
    void onAck(const Ack &ack);

    /** Every packet either acknowledged or abandoned. */
    bool done() const;

    /** Every packet acknowledged (nothing abandoned). */
    bool complete() const;

    size_t packetCount() const { return slots_.size(); }
    const UplinkStats &stats() const { return stats_; }

  private:
    struct Slot
    {
        Packet packet;
        bool acked = false;
        bool abandoned = false;
        size_t attempts = 0;
        uint64_t nextAttempt = 0;
        uint64_t backoff = 0;

        bool finished() const { return acked || abandoned; }
    };

    UplinkConfig config_;
    UplinkStats stats_;
    std::vector<Slot> slots_;
    size_t base_ = 0; //!< first unfinished slot
};

/** Outcome of shipping one trace through the simulated network. */
struct TransferOutcome
{
    size_t packets = 0;     //!< packets the trace split into
    bool complete = false;  //!< sink accepted every one of them
    uint64_t rounds = 0;    //!< simulation rounds the transfer took
    UplinkStats uplink;
    ChannelStats channel;
};

/**
 * Drive one mote's trace through a fresh LossyChannel into @p sink:
 * packetize, then loop rounds of poll -> send -> drain -> offer ->
 * ack until the uplink is done (plus a final flush of delayed frames
 * and a finalize() releasing any buffered tail). The channel is
 * seeded with @p seed; the collector keeps its own cross-transfer
 * state, so one sink can serve many motes.
 */
TransferOutcome transferTrace(const trace::TimingTrace &trace, uint16_t mote,
                              size_t mtu, const ChannelConfig &channel_config,
                              const UplinkConfig &uplink_config,
                              SinkCollector &sink, uint64_t seed);

/** Add @p transfer's link counters and @p sink's counters to the
 *  net.* metrics (docs/NETWORK.md); call only with metrics enabled. */
void recordTransferMetrics(const TransferOutcome &transfer,
                           const CollectorStats &sink);

} // namespace ct::net

#endif // CT_NET_UPLINK_HH
