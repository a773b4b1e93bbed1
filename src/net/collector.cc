#include "net/collector.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ct::net {

SinkCollector::SinkCollector(const CollectorConfig &config) : config_(config)
{
    if (!config_.storeDir.empty())
        store_ = std::make_unique<store::Store>(config_.storeDir,
                                                config_.store);
}

std::optional<Ack>
SinkCollector::offer(const std::vector<uint8_t> &frame)
{
    return offer(frame.data(), frame.size());
}

std::optional<Ack>
SinkCollector::offer(const uint8_t *frame, size_t size)
{
    ++stats_.framesOffered;
    Packet packet;
    if (!parsePacket(frame, size, packet)) {
        ++stats_.rejected;
        return std::nullopt;
    }

    MoteState &state = motes_[packet.mote];
    if (state.received.count(packet.seq)) {
        ++stats_.duplicates;
        return ackFor(packet.mote, state);
    }
    if (packet.seq < state.nextExpected) {
        // Its gap was skipped; delivering now would reorder records.
        ++stats_.stale;
        return ackFor(packet.mote, state);
    }

    state.received.insert(packet.seq);
    ++state.accepted;
    ++stats_.accepted;

    if (packet.seq == state.nextExpected) {
        deliver(packet.mote, state, packet.payload);
        ++state.nextExpected;
        drainPending(packet.mote, state);
    } else {
        state.pending.emplace(packet.seq, std::move(packet.payload));
        if (config_.skipAheadPackets > 0 &&
            state.pending.size() > config_.skipAheadPackets) {
            // The gap's packet has evidently exhausted its retransmit
            // budget: abandon the missing sequence numbers and resume
            // at the earliest buffered packet.
            uint32_t resume = state.pending.begin()->first;
            stats_.skippedPackets += resume - state.nextExpected;
            state.nextExpected = resume;
            drainPending(packet.mote, state);
        }
    }
    return ackFor(packet.mote, state);
}

void
SinkCollector::deliver(uint16_t mote, MoteState &state,
                       const std::vector<uint8_t> &payload)
{
    std::vector<trace::TimingRecord> records;
    if (!decodePayload(payload, records)) {
        // CRC-clean yet undecodable: count it, trust nothing from it.
        ++stats_.malformedPayloads;
        return;
    }
    for (auto &record : records) {
        if (state.invocations.size() <= record.proc)
            state.invocations.resize(record.proc + 1, 0);
        record.invocation = state.invocations[record.proc]++;
        if (config_.retainTraces)
            state.trace.add(record);
        ++state.records;
        ++stats_.recordsDelivered;
        // WAL before sink: a record the estimators saw is always at
        // least buffered for durability (group-commit bounds the loss
        // window, Store::flush closes it).
        if (store_)
            store_->append(mote, record);
        if (sink_)
            sink_(mote, record);
    }
}

void
SinkCollector::drainPending(uint16_t mote, MoteState &state)
{
    auto it = state.pending.begin();
    while (it != state.pending.end() && it->first == state.nextExpected) {
        deliver(mote, state, it->second);
        ++state.nextExpected;
        it = state.pending.erase(it);
    }
}

void
SinkCollector::finalize(uint16_t mote)
{
    auto found = motes_.find(mote);
    if (found == motes_.end())
        return;
    MoteState &state = found->second;
    while (!state.pending.empty()) {
        uint32_t resume = state.pending.begin()->first;
        if (resume > state.nextExpected)
            stats_.skippedPackets += resume - state.nextExpected;
        state.nextExpected = resume;
        drainPending(mote, state);
    }
    if (store_)
        store_->flush();
}

void
SinkCollector::evictMote(uint16_t mote)
{
    finalize(mote);
    motes_.erase(mote);
}

Ack
SinkCollector::ackFor(uint16_t mote, const MoteState &state) const
{
    Ack ack;
    ack.mote = mote;
    ack.nextExpected = state.nextExpected;
    ack.selective.reserve(state.pending.size());
    for (const auto &[seq, payload] : state.pending)
        ack.selective.push_back(seq);
    return ack;
}

size_t
SinkCollector::packetsAccepted(uint16_t mote) const
{
    auto found = motes_.find(mote);
    return found == motes_.end() ? 0 : found->second.accepted;
}

uint64_t
SinkCollector::recordsDelivered(uint16_t mote) const
{
    auto found = motes_.find(mote);
    return found == motes_.end() ? 0 : found->second.records;
}

const trace::TimingTrace &
SinkCollector::traceFor(uint16_t mote) const
{
    static const trace::TimingTrace kEmpty;
    auto found = motes_.find(mote);
    return found == motes_.end() ? kEmpty : found->second.trace;
}

std::vector<uint16_t>
SinkCollector::motes() const
{
    std::vector<uint16_t> out;
    out.reserve(motes_.size());
    for (const auto &[mote, state] : motes_)
        out.push_back(mote);
    return out;
}

EstimatorBank::EstimatorBank(const ir::Module &module,
                             const sim::LoweredModule &lowered,
                             const sim::CostModel &costs,
                             sim::PredictPolicy policy,
                             uint64_t cycles_per_tick,
                             const tomography::EstimatorOptions &options,
                             double nested_probe_cycles,
                             double step_exponent, double forgetting)
    : module_(&module), options_(options), stepExponent_(step_exponent),
      forgetting_(forgetting)
{
    std::vector<double> no_callees(module.procedureCount(), 0.0);
    models_.reserve(module.procedureCount());
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
        models_.push_back(std::make_unique<tomography::TimingModel>(
            module.procedure(id), lowered.procs[id], costs, policy,
            cycles_per_tick, no_callees, nested_probe_cycles));
    }
    tables_.resize(module.procedureCount());
}

tomography::StreamingEstimator &
EstimatorBank::estimatorFor(uint16_t mote, ir::ProcId proc)
{
    auto key = std::make_pair(mote, proc);
    auto found = estimators_.find(key);
    if (found == estimators_.end()) {
        // One path table per procedure, enumerated on the procedure's
        // first estimator and shared by every later mote.
        if (!tables_[proc])
            tables_[proc] =
                tomography::PathTable::build(
                    *models_[proc], options_,
                    std::vector<double>(models_[proc]->paramCount(), 0.5));
        found = estimators_
                    .emplace(key,
                             std::make_unique<tomography::StreamingEstimator>(
                                 *models_[proc], tables_[proc], options_,
                                 stepExponent_, forgetting_))
                    .first;
    }
    return *found->second;
}

void
EstimatorBank::observe(uint16_t mote, const trace::TimingRecord &record)
{
    if (record.proc >= models_.size()) {
        ++unknownProc_;
        return;
    }
    estimatorFor(mote, record.proc).observe(record.durationTicks());
}

const tomography::StreamingEstimator *
EstimatorBank::find(uint16_t mote, ir::ProcId proc) const
{
    auto found = estimators_.find(std::make_pair(mote, proc));
    return found == estimators_.end() ? nullptr : found->second.get();
}

std::vector<double>
EstimatorBank::theta(uint16_t mote, ir::ProcId proc) const
{
    const auto *estimator = find(mote, proc);
    return estimator ? estimator->theta() : std::vector<double>{};
}

uint64_t
EstimatorBank::observations() const
{
    uint64_t total = 0;
    for (const auto &[key, estimator] : estimators_)
        total += estimator->observations();
    return total;
}

uint64_t
EstimatorBank::outliers() const
{
    uint64_t total = 0;
    for (const auto &[key, estimator] : estimators_)
        total += estimator->outliers();
    return total;
}

std::vector<store::EstimatorSlot>
EstimatorBank::snapshot() const
{
    std::vector<store::EstimatorSlot> slots;
    slots.reserve(estimators_.size());
    // estimators_ is an ordered map keyed by (mote, proc), so the
    // slot order — and therefore the checkpoint encoding — is already
    // deterministic.
    for (const auto &[key, estimator] : estimators_) {
        store::EstimatorSlot slot;
        slot.mote = key.first;
        slot.proc = key.second;
        slot.state = estimator->snapshot();
        slots.push_back(std::move(slot));
    }
    return slots;
}

void
EstimatorBank::restoreSlot(uint16_t mote, ir::ProcId proc,
                           const tomography::StreamingState &state)
{
    if (proc >= models_.size()) {
        // A checkpoint written against a different module build; the
        // same policy as observe(): count it, restore nothing.
        ++unknownProc_;
        return;
    }
    estimatorFor(mote, proc).restore(state);
}

void
EstimatorBank::mergeSlot(uint16_t mote, ir::ProcId proc,
                         const tomography::StreamingState &state)
{
    if (proc >= models_.size()) {
        ++unknownProc_;
        return;
    }
    estimatorFor(mote, proc).mergeFrom(state);
}

void
EstimatorBank::mergeFrom(const EstimatorBank &other)
{
    for (const auto &[key, estimator] : other.estimators_)
        mergeSlot(key.first, key.second, estimator->snapshot());
    unknownProc_ += other.unknownProc_;
}

void
resumeBank(const store::Store &store, EstimatorBank &bank)
{
    store.replayInto(
        [&](const store::EstimatorSlot &slot) {
            bank.restoreSlot(slot.mote, slot.proc, slot.state);
        },
        [&](uint16_t mote, const trace::TimingRecord &record) {
            bank.observe(mote, record);
        });
}

} // namespace ct::net
