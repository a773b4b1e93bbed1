/**
 * @file
 * The three benchmark workloads. Why each exists, and which layers it
 * stresses or bypasses, is in README.md.
 */

#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "api/pipeline.hh"
#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "net/channel.hh"
#include "net/collector.hh"
#include "net/packet.hh"
#include "sim/lower.hh"
#include "spans.hh"
#include "stats/rng.hh"
#include "store/store.hh"

namespace fs = std::filesystem;

namespace ct::bench {

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t state = seed ^ 0x9e3779b97f4a7c15ULL * (index + 1);
    return splitmix64(state);
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t hash)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

uint16_t
wireId(size_t index)
{
    return uint16_t(1 + (index % 65535) * 48271ULL % 65535);
}

void
FrameSet::addMote(uint16_t wire,
                  const std::vector<std::vector<uint8_t>> &mote_frames)
{
    Mote mote;
    mote.wire = wire;
    mote.first = uint32_t(frames.size());
    mote.count = uint32_t(mote_frames.size());
    for (const auto &frame : mote_frames) {
        frames.emplace_back(uint32_t(bytes.size()), uint32_t(frame.size()));
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    motes.push_back(mote);
}

FrameSet
FrameSet::prefix(size_t count) const
{
    FrameSet out;
    for (size_t m = 0; m < std::min(count, motes.size()); ++m) {
        std::vector<std::vector<uint8_t>> mote_frames;
        for (uint32_t f = 0; f < motes[m].count; ++f) {
            const uint8_t *start = frame(motes[m].first + f);
            mote_frames.emplace_back(
                start, start + frames[motes[m].first + f].second);
        }
        out.addMote(motes[m].wire, mote_frames);
    }
    return out;
}

namespace {

/** Nested probe cost the library's own fleet code passes to estimators. */
double
nestedProbeCycles(const sim::SimConfig &sim)
{
    return 2.0 * double(sim.costs.timerRead);
}

} // namespace

net::EstimatorBank
makeBank(const workloads::Workload &program, const sim::LoweredModule &lowered,
         const sim::SimConfig &sim)
{
    return net::EstimatorBank(*program.module, lowered, sim.costs, sim.policy,
                              sim.cyclesPerTick, {}, nestedProbeCycles(sim));
}

std::unique_ptr<fleet::ShardedCollector>
makeFleet(const workloads::Workload &program, const sim::LoweredModule &lowered,
          const sim::SimConfig &sim, size_t shards)
{
    fleet::ShardedCollectorConfig config;
    config.shards = shards;
    return std::make_unique<fleet::ShardedCollector>(
        *program.module, lowered, sim.costs, sim.policy, sim.cyclesPerTick,
        config, tomography::EstimatorOptions{}, nestedProbeCycles(sim));
}

namespace {

/** Frames of @p trace for @p wire: one radio packet each. */
std::vector<std::vector<uint8_t>>
frameTrace(const trace::TimingTrace &trace, uint16_t wire)
{
    std::vector<std::vector<uint8_t>> frames;
    for (const auto &packet : net::packetizeTrace(trace, wire))
        frames.push_back(net::serializePacket(packet));
    return frames;
}

void
hashDouble(uint64_t &hash, double value)
{
    hash = fnv1a(&value, sizeof value, hash);
}

void
hashU64(uint64_t &hash, uint64_t value)
{
    hash = fnv1a(&value, sizeof value, hash);
}

/** Bitwise fingerprint of everything a pipeline run reports. */
uint64_t
resultDigest(const api::PipelineResult &result)
{
    uint64_t hash = fnv1a(nullptr, 0);
    hashU64(hash, result.measureRun.totalCycles);
    hashU64(hash, result.measureRun.trace.size());
    for (double theta : result.estimatedTheta)
        hashDouble(hash, theta);
    hashDouble(hash, result.branchMae);
    for (const auto &out : result.outcomes) {
        hash = fnv1a(out.name.data(), out.name.size(), hash);
        hashDouble(hash, out.mispredictRate);
        hashDouble(hash, out.takenRate);
        hashU64(hash, out.totalCycles);
        hashU64(hash, out.mispredicted);
        hashU64(hash, out.branchesExecuted);
        hashU64(hash, out.dynamicJumps);
        hashDouble(hash, out.energyMicrojoules);
    }
    return hash;
}

/** A run whose outputs are out of range fails regardless of digests. */
bool
plausible(const api::PipelineResult &result)
{
    if (result.outcomes.size() != 5 || !std::isfinite(result.branchMae))
        return false;
    for (const auto &out : result.outcomes) {
        if (out.totalCycles == 0 || out.mispredictRate < 0.0 ||
            out.mispredictRate > 1.0)
            return false;
    }
    return true;
}

// ------------------------------------------------------------------
// pipeline_suite
// ------------------------------------------------------------------

class PipelineSuite final : public Workload
{
  public:
    explicit PipelineSuite(const Options &options)
        : seed_(options.seed), quick_(options.quick)
    {
    }

    const char *opName() const override { return "pipeline run"; }
    const char *latencyName() const override
    {
        return "one TomographyPipeline::run() at jobs=1";
    }
    double tailQuantile() const override { return 0.99; }
    Path path() const override { return Path::Pipeline; }

    void setup() override
    {
        programs_ = workloads::allWorkloads();
        round_ = 0;
        digests_.clear();
        implausible_ = 0;
        natural_ = tomography_ = 0.0;
        naturalEnergy_ = tomographyEnergy_ = 0.0;
    }

    Rep rep() override
    {
        uint64_t round = round_++;
        ScopedSpan rep_span("bench.rep", round);
        Rep rep;
        auto &digests = digests_[round];
        int64_t wall = nowNs();
        for (size_t i = 0; i < programs_.size(); ++i) {
            uint64_t op = round * programs_.size() + i;
            int64_t start = cpuNs();
            api::PipelineResult result;
            {
                ScopedSpan span(op % 16 == 0 ? "api.run" : nullptr, op);
                result = api::TomographyPipeline(programs_[i],
                                                 config(round, 1))
                             .run();
            }
            rep.latencyNs.push_back(cpuNs() - start);
            digests.push_back(resultDigest(result));
            if (!plausible(result)) {
                ++implausible_;
                continue;
            }
            natural_ += double(result.outcome("natural").totalCycles);
            tomography_ += double(result.outcome("tomography").totalCycles);
            naturalEnergy_ += result.outcome("natural").energyMicrojoules;
            tomographyEnergy_ +=
                result.outcome("tomography").energyMicrojoules;
        }
        rep.wallSeconds = double(nowNs() - wall) / 1e9;
        for (int64_t ns : rep.latencyNs)
            rep.seconds += double(ns) / 1e9;
        rep.ops = programs_.size();
        return rep;
    }

    uint64_t verify(std::vector<std::string> &failures) override
    {
        uint64_t failed = implausible_;
        if (implausible_ > 0)
            failures.push_back(std::to_string(implausible_) +
                               " pipeline runs reported out-of-range outputs");
        // The fan-out must not change a bit: the first and the last
        // round, run at jobs=1, against a jobs=4 re-run.
        std::set<uint64_t> rounds = {digests_.begin()->first,
                                     digests_.rbegin()->first};
        for (uint64_t round : rounds) {
            const auto &seen = digests_.at(round);
            for (size_t i = 0; i < programs_.size(); ++i) {
                auto fanned =
                    api::TomographyPipeline(programs_[i], config(round, 4))
                        .run();
                if (resultDigest(fanned) != seen[i]) {
                    ++failed;
                    failures.push_back("round " + std::to_string(round) +
                                       " " + programs_[i].name +
                                       ": jobs=4 result differs from jobs=1");
                }
            }
        }
        return failed;
    }

    std::vector<std::pair<workloads::Workload, uint64_t>>
    stagePrograms() const override
    {
        std::vector<std::pair<workloads::Workload, uint64_t>> out;
        for (const auto &program : programs_)
            out.emplace_back(program, roundSeed(0));
        return out;
    }

    std::vector<Traffic> traffic() const override
    {
        // Each program's round-0 measurement trace, split over 16 motes
        // the way a deployment's sink would receive it.
        std::vector<Traffic> out;
        for (const auto &program : programs_) {
            api::TomographyPipeline pipeline(program, config(0, 1));
            auto trace = pipeline.measure().trace;
            Traffic traffic{program, pipeline.config().sim, {}};
            traffic.sim.timingProbes = true;
            const size_t motes = 16;
            const auto &records = trace.records();
            for (size_t m = 0; m < motes; ++m) {
                trace::TimingTrace part;
                for (size_t r = m * records.size() / motes;
                     r < (m + 1) * records.size() / motes; ++r)
                    part.add(records[r]);
                traffic.frames.addMote(wireId(m), frameTrace(part, wireId(m)));
            }
            out.push_back(std::move(traffic));
        }
        return out;
    }

    std::vector<std::string> notes() const override
    {
        auto pct = [](double base, double opt) {
            return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
        };
        return {"suite cycles saved by tomography placement vs natural: " +
                    std::to_string(pct(natural_, tomography_)) + "%",
                "suite energy saved: " +
                    std::to_string(pct(naturalEnergy_, tomographyEnergy_)) +
                    "%"};
    }

  private:
    uint64_t roundSeed(uint64_t round) const
    {
        return mixSeed(seed_, round);
    }

    api::PipelineConfig config(uint64_t round, size_t jobs) const
    {
        api::PipelineConfig config;
        config.seed = roundSeed(round);
        config.jobs = jobs;
        if (quick_) {
            config.measureInvocations /= 50;
            config.evalInvocations /= 50;
        }
        return config;
    }

    uint64_t seed_;
    bool quick_;
    std::vector<workloads::Workload> programs_;
    uint64_t round_ = 0;
    /** Per round, the digest of each program's run, in program order. */
    std::map<uint64_t, std::vector<uint64_t>> digests_;
    uint64_t implausible_ = 0;
    double natural_ = 0.0, tomography_ = 0.0;
    double naturalEnergy_ = 0.0, tomographyEnergy_ = 0.0;
};

// ------------------------------------------------------------------
// ingest_lossy
// ------------------------------------------------------------------

constexpr size_t kShards = 4;
/** Simulated template motes whose payloads the logical motes reuse. */
constexpr size_t kTemplates = 64;

class IngestLossy final : public Workload
{
  public:
    explicit IngestLossy(const Options &options)
        : seed_(options.seed),
          motes_(options.quick ? kMotes / 50 : kMotes),
          probeMotes_(options.quick ? kProbeMotes / 50 : kProbeMotes)
    {
        sim_.cyclesPerTick = 1;
        sim_.timingProbes = true;
    }

    const char *opName() const override { return "delivered record"; }
    const char *latencyName() const override
    {
        return "one mote transfer, offer of its frames through evictMote";
    }
    double tailQuantile() const override { return 0.99; }
    Path path() const override { return Path::Ingest; }

    void setup() override
    {
        program_ = workloads::workloadByName("event_dispatch");
        lowered_ = sim::lowerModule(*program_.module);

        // Simulated template motes; every logical mote re-stamps
        // one template's payloads with its own wire id and CRC.
        std::vector<std::vector<std::vector<uint8_t>>> payloads(kTemplates);
        for (size_t t = 0; t < kTemplates; ++t) {
            auto inputs = program_.makeInputs(mixSeed(seed_, 2 * t));
            sim::Simulator simulator(*program_.module, lowered_, sim_,
                                     *inputs, mixSeed(seed_, 2 * t + 1));
            auto run = simulator.run(program_.entry, kInvocations);
            for (auto &packet : net::packetizeTrace(run.trace, 0))
                payloads[t].push_back(std::move(packet.payload));
        }

        frames_ = FrameSet();
        shardMotes_.assign(kShards, {});
        fleet::ShardLayout layout(kShards);
        net::ChannelConfig channel;
        channel.dropRate = 0.05;
        channel.duplicateRate = 0.02;
        channel.reorderWindow = 3;
        channel.bitFlipRate = 0.01;
        for (size_t i = 0; i < motes_; ++i) {
            uint16_t wire = wireId(i % kWireIds);
            const auto &split = payloads[i % kTemplates];
            // Each mote's own seeded link: what reaches the sink.
            net::LossyChannel link(channel, mixSeed(~seed_, i));
            std::vector<std::vector<uint8_t>> heard;
            for (size_t seq = 0; seq < split.size(); ++seq) {
                net::Packet packet;
                packet.mote = wire;
                packet.seq = uint32_t(seq);
                packet.payload = split[seq];
                link.advance();
                link.send(net::serializePacket(packet));
                for (auto &got : link.drain())
                    heard.push_back(std::move(got));
            }
            for (auto &got : link.flush())
                heard.push_back(std::move(got));
            shardMotes_[layout.shardOf(wire)].push_back(
                uint32_t(frames_.motes.size()));
            frames_.addMote(wire, heard);
        }
        reps_.clear();
    }

    Rep rep() override
    {
        auto sharded = makeFleet(program_, lowered_, sim_, kShards);
        Rep rep;
        rep.latencyNs.reserve(frames_.motes.size());
        rep.shardBusy.assign(kShards, 0.0);

        // One thread feeds the shards in turn, so a rep's time is the
        // ingest's own cost, never a wait for a busy processor.
        ScopedSpan rep_span("bench.rep", reps_.size());
        int64_t wall = nowNs();
        int64_t start = cpuNs();
        for (size_t s = 0; s < kShards; ++s) {
            ScopedSpan shard_span("exec.shard", s);
            int64_t shard_start = cpuNs();
            int64_t t0 = shard_start;
            for (uint32_t index : shardMotes_[s]) {
                const FrameSet::Mote &mote = frames_.motes[index];
                // Per-call spans on every 16th transfer only.
                bool sampled = spans::enabled() && index % 16 == 0;
                {
                    ScopedSpan transfer(sampled ? "fleet.transfer" : nullptr,
                                        index);
                    for (uint32_t f = 0; f < mote.count; ++f) {
                        ScopedSpan offer(sampled ? "fleet.offer" : nullptr,
                                         index);
                        sharded->offer(frames_.frame(mote.first + f),
                                       frames_.frames[mote.first + f].second);
                    }
                    ScopedSpan evict(sampled ? "fleet.evict" : nullptr,
                                     index);
                    sharded->evictMote(mote.wire);
                }
                // One clock read per transfer: its end is the next start.
                int64_t t1 = cpuNs();
                rep.latencyNs.push_back(t1 - t0);
                t0 = t1;
            }
            rep.shardBusy[s] = double(t0 - shard_start) / 1e9;
        }
        rep.seconds = double(cpuNs() - start) / 1e9;
        rep.wallSeconds = double(nowNs() - wall) / 1e9;

        auto stats = sharded->stats();
        rep.ops = stats.recordsDelivered;
        RepCheck check;
        check.delivered = stats.recordsDelivered;
        check.digest = fleet::snapshotDigest(sharded->mergedSnapshot());
        check.stats = stats;
        reps_.push_back(check);
        return rep;
    }

    uint64_t verify(std::vector<std::string> &failures) override
    {
        // Reference: the same frames, one shard, in mote order — what
        // the sharded ingest must reproduce bit for bit.
        auto reference = makeFleet(program_, lowered_, sim_, 1);
        for (const auto &mote : frames_.motes) {
            for (uint32_t f = 0; f < mote.count; ++f)
                reference->offer(frames_.frame(mote.first + f),
                                 frames_.frames[mote.first + f].second);
            reference->evictMote(mote.wire);
        }
        uint64_t ref_delivered = reference->stats().recordsDelivered;
        uint64_t ref_digest =
            fleet::snapshotDigest(reference->mergedSnapshot());

        uint64_t failed = 0;
        for (size_t i = 0; i < reps_.size(); ++i) {
            if (reps_[i].digest != ref_digest ||
                reps_[i].delivered != ref_delivered) {
                failed += reps_[i].delivered;
                failures.push_back("rep " + std::to_string(i) +
                                   ": sharded ingest differs from the "
                                   "serial single-shard reference");
            }
        }

        // The timed reps run on one thread; the fan-out the sink uses,
        // one worker per shard, must give the same bank.
        auto fanned = makeFleet(program_, lowered_, sim_, kShards);
        exec::ThreadPool pool(kShards);
        pool.parallelFor(kShards, [&](size_t s) {
            for (uint32_t index : shardMotes_[s]) {
                const FrameSet::Mote &mote = frames_.motes[index];
                for (uint32_t f = 0; f < mote.count; ++f)
                    fanned->offer(frames_.frame(mote.first + f),
                                  frames_.frames[mote.first + f].second);
                fanned->evictMote(mote.wire);
            }
        });
        uint64_t fanned_delivered = fanned->stats().recordsDelivered;
        if (fanned_delivered != ref_delivered ||
            fleet::snapshotDigest(fanned->mergedSnapshot()) != ref_digest) {
            failed += fanned_delivered;
            failures.push_back("ingest with one worker per shard differs "
                               "from the serial single-shard reference");
        }
        return failed;
    }

    std::vector<std::pair<workloads::Workload, uint64_t>>
    stagePrograms() const override
    {
        return {{program_, mixSeed(seed_, 0)}};
    }

    std::vector<Traffic> traffic() const override
    {
        return {Traffic{program_, sim_, frames_.prefix(probeMotes_)}};
    }

    std::vector<std::string> notes() const override
    {
        if (reps_.empty())
            return {};
        const RepCheck &last = reps_.back();
        return {
            "motes " + std::to_string(frames_.motes.size()) + ", frames " +
                std::to_string(frames_.frames.size()) +
                ", records delivered per rep " +
                std::to_string(last.delivered),
            "collector: offered " + std::to_string(last.stats.framesOffered) +
                ", accepted " + std::to_string(last.stats.accepted) +
                ", rejected " + std::to_string(last.stats.rejected) +
                ", duplicates " + std::to_string(last.stats.duplicates) +
                ", skipped " + std::to_string(last.stats.skippedPackets)};
    }

  private:
    /** Logical mote transfers per rep. */
    static constexpr size_t kMotes = 1 << 14;
    /** Distinct wire ids the transfers reuse in turn: the estimator
     *  bank's size, kept small enough to stay in a core's cache. */
    static constexpr size_t kWireIds = 1 << 10;
    /** Invocations each template mote simulates (its records). */
    static constexpr size_t kInvocations = 64;
    /** Motes the sink-layer probe replays. */
    static constexpr size_t kProbeMotes = 1 << 12;

    struct RepCheck
    {
        uint64_t delivered = 0;
        uint64_t digest = 0;
        net::CollectorStats stats;
    };

    uint64_t seed_;
    size_t motes_;
    size_t probeMotes_;
    sim::SimConfig sim_;
    workloads::Workload program_;
    sim::LoweredModule lowered_;
    FrameSet frames_;
    /** Mote indices per shard, in arena order. */
    std::vector<std::vector<uint32_t>> shardMotes_;
    std::vector<RepCheck> reps_;
};

// ------------------------------------------------------------------
// recover_cold
// ------------------------------------------------------------------

class RecoverCold final : public Workload
{
  public:
    explicit RecoverCold(const Options &options)
        : seed_(options.seed),
          dir_((fs::path(options.scratch) / "recover_cold").string()),
          invocations_(options.quick ? kInvocations / 50 : kInvocations)
    {
    }

    const char *opName() const override { return "recovered record"; }
    const char *latencyName() const override
    {
        return "one cold recovery, Store open through resumeBank";
    }
    double tailQuantile() const override { return 0.90; }
    Path path() const override { return Path::Recovery; }

    void setup() override
    {
        program_ = workloads::workloadByName("crc16");
        lowered_ = sim::lowerModule(*program_.module);
        traces_.clear();
        for (size_t m = 0; m < kMotes; ++m) {
            auto inputs = program_.makeInputs(mixSeed(seed_, 2 * m));
            sim::Simulator simulator(*program_.module, lowered_, sim_,
                                     *inputs, mixSeed(seed_, 2 * m + 1));
            traces_.push_back(
                simulator.run(program_.entry, invocations_).trace);
        }

        // The WAL a crashed sink leaves behind: every record appended
        // and flushed, no checkpoint.
        fs::remove_all(dir_);
        auto writer = makeBank(program_, lowered_, sim_);
        {
            store::Store store(dir_);
            for (size_t m = 0; m < kMotes; ++m) {
                for (const auto &record : traces_[m].records()) {
                    store.append(wireId(m), record);
                    writer.observe(wireId(m), record);
                }
            }
            store.flush();
            written_ = store.nextOrdinal();
        }
        writerDigest_ = fleet::snapshotDigest(writer.snapshot());
        reps_.clear();
    }

    Rep rep() override
    {
        Rep rep;
        ScopedSpan rep_span("bench.rep", reps_.size());
        int64_t wall = nowNs();
        int64_t start = cpuNs();
        std::unique_ptr<store::Store> store;
        {
            ScopedSpan span("store.open", reps_.size());
            store = std::make_unique<store::Store>(dir_);
        }
        auto bank = makeBank(program_, lowered_, sim_);
        {
            ScopedSpan span("net.resume_bank", reps_.size());
            net::resumeBank(*store, bank);
        }
        int64_t elapsed = cpuNs() - start;
        rep.wallSeconds = double(nowNs() - wall) / 1e9;
        rep.seconds = double(elapsed) / 1e9;
        rep.latencyNs.push_back(elapsed);
        rep.ops = store->recoveredTail().size();
        reps_.push_back({rep.ops, fleet::snapshotDigest(bank.snapshot())});
        return rep;
    }

    uint64_t verify(std::vector<std::string> &failures) override
    {
        uint64_t failed = 0;
        for (size_t i = 0; i < reps_.size(); ++i) {
            if (reps_[i].first != written_ ||
                reps_[i].second != writerDigest_) {
                failed += reps_[i].first;
                failures.push_back("recovery " + std::to_string(i) +
                                   ": resumed bank differs from the writer");
            }
        }
        return failed;
    }

    std::vector<std::pair<workloads::Workload, uint64_t>>
    stagePrograms() const override
    {
        return {{program_, mixSeed(seed_, 0)}};
    }

    std::vector<Traffic> traffic() const override
    {
        Traffic traffic{program_, sim_, {}};
        for (size_t m = 0; m < kMotes; ++m)
            traffic.frames.addMote(wireId(m),
                                   frameTrace(traces_[m], wireId(m)));
        return {traffic};
    }

    std::vector<std::string> notes() const override
    {
        return {"WAL records " + std::to_string(written_) + " over " +
                std::to_string(kMotes) + " motes, no checkpoint"};
    }

  private:
    static constexpr size_t kMotes = 4;
    static constexpr size_t kInvocations = 300;

    uint64_t seed_;
    std::string dir_;
    size_t invocations_;
    sim::SimConfig sim_;
    workloads::Workload program_;
    sim::LoweredModule lowered_;
    std::vector<trace::TimingTrace> traces_;
    uint64_t written_ = 0;
    uint64_t writerDigest_ = 0;
    /** Per recovery: (records replayed, bank digest). */
    std::vector<std::pair<uint64_t, uint64_t>> reps_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"pipeline_suite", "ingest_lossy", "recover_cold"};
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    const std::string &name = options.workload;
    if (name == "pipeline_suite")
        return std::make_unique<PipelineSuite>(options);
    if (name == "ingest_lossy")
        return std::make_unique<IngestLossy>(options);
    if (name == "recover_cold")
        return std::make_unique<RecoverCold>(options);
    return nullptr;
}

} // namespace ct::bench
