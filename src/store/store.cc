#include "store/store.hh"

#include <algorithm>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "store/format.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace ct::store {

Store::Store(const std::string &dir, const StoreConfig &config)
    : dir_(dir), config_(config)
{
    CT_ASSERT(config_.segmentBytes > kSegmentHeaderBytes,
              "store: segmentBytes must exceed the segment header");
    CT_ASSERT(config_.fsyncEveryRecords > 0,
              "store: fsyncEveryRecords must be >= 1");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("store: cannot create directory ", dir_, ": ", ec.message());
    removeStaleTempFiles(dir_);
    recover();
}

Store::~Store()
{
    if (fd_ >= 0) {
        writeBuffered(true);
        ::close(fd_);
    }
}

void
Store::recover()
{
    // Newest checkpoint that validates wins; damaged ones are skipped
    // (never deleted here — fsck reports them, compact() prunes).
    checkpointIds_ = listCheckpointIds(dir_);
    nextCheckpointId_ =
        checkpointIds_.empty() ? 1 : checkpointIds_.back() + 1;
    for (auto it = checkpointIds_.rbegin(); it != checkpointIds_.rend();
         ++it) {
        auto bytes =
            readFileBytes((fs::path(dir_) / checkpointFileName(*it))
                              .string());
        Checkpoint candidate;
        if (bytes && decodeCheckpoint(*bytes, candidate)) {
            checkpoint_ = std::move(candidate);
            break;
        }
        ++stats_.checkpointsDiscarded;
        warn("store: checkpoint ", checkpointFileName(*it),
             " failed validation; falling back");
    }
    const uint64_t covered =
        checkpoint_ ? checkpoint_->walOrdinal : 0;
    stats_.recoveredSlots = checkpoint_ ? checkpoint_->slots.size() : 0;

    // Scan segments in id order. The durable prefix ends at the first
    // invalid byte anywhere in the sequence: the tail of that segment
    // is truncated and every later segment file is dropped whole — a
    // crash can only tear the end of the log, so anything beyond an
    // invalid range is unordered debris, never silently replayed.
    uint64_t running = 0;
    bool first = true;
    bool stopped = false;
    for (uint64_t id : listSegmentIds(dir_)) {
        std::string path = (fs::path(dir_) / segmentFileName(id)).string();
        if (stopped) {
            std::error_code ec;
            uint64_t size = fs::file_size(path, ec);
            stats_.tornBytesDropped += ec ? 0 : size;
            ++stats_.segmentsDropped;
            fs::remove(path, ec);
            continue;
        }

        auto scan = scanSegment(path, id, [&](const WalEntry &entry) {
            if (entry.ordinal >= covered)
                tail_.push_back(entry);
        });

        // A later segment must continue exactly where the previous one
        // ended — except that a gap fully covered by the checkpoint is
        // fine (recovery itself leaves one when it reopens a log whose
        // checkpoint outran the surviving WAL).
        bool acceptable =
            scan.end != ScanEnd::BadHeader &&
            (first || scan.firstOrdinal == running ||
             (scan.firstOrdinal > running && scan.firstOrdinal <= covered));
        if (!acceptable) {
            // Undecodable or out-of-sequence segment: drop it (and,
            // via `stopped`, everything after it). Entries it may
            // have emitted are not part of the durable prefix.
            if (scan.end != ScanEnd::BadHeader) {
                while (!tail_.empty() &&
                       tail_.back().ordinal >= scan.firstOrdinal)
                    tail_.pop_back();
            }
            stats_.tornBytesDropped += scan.fileBytes;
            ++stats_.segmentsDropped;
            std::error_code ec;
            fs::remove(path, ec);
            stopped = true;
            continue;
        }

        SegmentInfo info;
        info.id = id;
        info.firstOrdinal = scan.firstOrdinal;
        info.records = scan.records;
        info.bytes = scan.validBytes;
        segments_.push_back(info);
        running = scan.firstOrdinal + scan.records;
        first = false;

        if (scan.end == ScanEnd::TornTail) {
            stats_.tornBytesDropped += scan.fileBytes - scan.validBytes;
            std::error_code ec;
            fs::resize_file(path, scan.validBytes, ec);
            if (ec)
                fatal("store: cannot truncate torn tail of ", path, ": ",
                      ec.message());
            stopped = true;
        }
    }

    // A checkpoint may cover more than the WAL holds (its records were
    // compacted away, or the log was damaged harder than the
    // checkpoint): the ordinal clock continues from whichever is
    // further along.
    nextOrdinal_ = std::max(running, covered);
    stats_.recoveredTailRecords = tail_.size();

    // Resume appending into the last surviving segment when it has
    // room; otherwise start a fresh one.
    if (!segments_.empty() &&
        segments_.back().bytes < config_.segmentBytes &&
        segments_.back().firstOrdinal + segments_.back().records ==
            nextOrdinal_) {
        openActiveSegment(segments_.back().id, segments_.back().firstOrdinal,
                          /*fresh=*/false);
    } else {
        if (!segments_.empty())
            ++stats_.segmentsSealed;
        uint64_t next_id = segments_.empty() ? 1 : segments_.back().id + 1;
        openActiveSegment(next_id, nextOrdinal_, /*fresh=*/true);
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        const std::string &scope = config_.metricsScope;
        m.counter(scope + "recovery.opens").add(1);
        m.counter(scope + "recovery.replayed_records").add(tail_.size());
        m.counter(scope + "recovery.restored_slots")
            .add(stats_.recoveredSlots);
        m.counter(scope + "recovery.torn_bytes_dropped")
            .add(stats_.tornBytesDropped);
        m.counter(scope + "recovery.checkpoints_discarded")
            .add(stats_.checkpointsDiscarded);
    }
}

void
Store::openActiveSegment(uint64_t id, uint64_t first_ordinal, bool fresh)
{
    std::string path = (fs::path(dir_) / segmentFileName(id)).string();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fatal("store: cannot open segment ", path);

    if (fresh) {
        SegmentInfo info;
        info.id = id;
        info.firstOrdinal = first_ordinal;
        info.bytes = kSegmentHeaderBytes;
        segments_.push_back(info);
        buffer_ = encodeSegmentHeader(id, first_ordinal);
        syncDirectory(dir_);
    }
    segments_.back().active = true;
}

void
Store::sealActiveSegment()
{
    writeBuffered(true);
    ::close(fd_);
    fd_ = -1;
    segments_.back().active = false;
    ++stats_.segmentsSealed;
    bumpCounter(ctrSegmentsSealed_, "segments_sealed", 1);
}

void
Store::append(uint16_t mote, const trace::TimingRecord &record)
{
    auto entry = encodeWalEntry(mote, record);

    SegmentInfo &active = segments_.back();
    if (active.bytes + entry.size() > config_.segmentBytes &&
        active.bytes > kSegmentHeaderBytes) {
        sealActiveSegment();
        openActiveSegment(segments_.back().id + 1, nextOrdinal_,
                          /*fresh=*/true);
    }

    buffer_.insert(buffer_.end(), entry.begin(), entry.end());
    SegmentInfo &seg = segments_.back();
    seg.bytes += entry.size();
    ++seg.records;
    ++nextOrdinal_;
    ++pendingRecords_;
    ++stats_.recordsAppended;
    stats_.bytesAppended += entry.size();
    bumpCounter(ctrRecordsAppended_, "records_appended", 1);
    bumpCounter(ctrBytesAppended_, "bytes_appended", entry.size());

    if (pendingRecords_ >= config_.fsyncEveryRecords)
        flush();
}

void
Store::flush()
{
    writeBuffered(true);
}

void
Store::writeBuffered(bool sync)
{
    if (!buffer_.empty()) {
        size_t done = 0;
        while (done < buffer_.size()) {
            ssize_t n = ::write(fd_, buffer_.data() + done,
                                buffer_.size() - done);
            if (n < 0)
                fatal("store: short write to segment ",
                      segmentFileName(segments_.back().id));
            done += size_t(n);
        }
        buffer_.clear();
    } else if (pendingRecords_ == 0 || !sync) {
        return;
    }
    if (sync) {
        if (::fsync(fd_) != 0)
            fatal("store: fsync failed for segment ",
                  segmentFileName(segments_.back().id));
        ++stats_.fsyncs;
        pendingRecords_ = 0;
        bumpCounter(ctrFsyncs_, "fsyncs", 1);
    }
}

void
Store::writeCheckpoint(std::vector<EstimatorSlot> slots)
{
    // WAL first: a checkpoint must never claim records the log does
    // not durably hold.
    flush();

    Checkpoint checkpoint;
    checkpoint.id = nextCheckpointId_++;
    checkpoint.walOrdinal = nextOrdinal_;
    checkpoint.slots = std::move(slots);
    writeFileAtomic(dir_, checkpointFileName(checkpoint.id),
                    encodeCheckpoint(checkpoint));
    checkpointIds_.push_back(checkpoint.id);
    checkpoint_ = std::move(checkpoint);
    ++stats_.checkpointsWritten;
    bumpCounter(ctrCheckpointsWritten_, "checkpoints_written", 1);
}

void
Store::compact()
{
    if (!checkpoint_)
        return;

    // Retention first: decide which checkpoints survive, then delete
    // only segments every *retained* checkpoint covers. Deleting up to
    // the newest checkpoint's coverage would leave the older retained
    // checkpoints useless — if the newest file is later damaged,
    // recovery falls back to an older checkpoint whose covered records
    // would no longer exist anywhere (an unrecoverable WAL gap). With
    // the oldest-retained rule every fallback checkpoint still has its
    // full replay tail on disk, which is what lets the crash-recovery
    // property inject checkpoint damage and compaction together.
    while (checkpointIds_.size() > kKeepCheckpoints) {
        std::error_code ec;
        fs::remove(fs::path(dir_) /
                       checkpointFileName(checkpointIds_.front()),
                   ec);
        checkpointIds_.erase(checkpointIds_.begin());
        ++stats_.checkpointsDeleted;
        bumpCounter(ctrCheckpointsDeleted_, "compaction.checkpoints_deleted", 1);
    }

    const uint64_t covered = oldestRetainedCoverage();
    for (auto it = segments_.begin(); it != segments_.end();) {
        if (!it->active && it->firstOrdinal + it->records <= covered) {
            std::error_code ec;
            fs::remove(fs::path(dir_) / segmentFileName(it->id), ec);
            ++stats_.segmentsDeleted;
            bumpCounter(ctrSegmentsDeleted_, "compaction.segments_deleted", 1);
            it = segments_.erase(it);
        } else {
            ++it;
        }
    }
    syncDirectory(dir_);
}

uint64_t
Store::oldestRetainedCoverage() const
{
    if (checkpointIds_.empty() || !checkpoint_)
        return 0;
    if (checkpointIds_.front() == checkpoint_->id)
        return checkpoint_->walOrdinal;
    auto bytes = readFileBytes(
        (fs::path(dir_) / checkpointFileName(checkpointIds_.front()))
            .string());
    Checkpoint oldest;
    if (!bytes || !decodeCheckpoint(*bytes, oldest)) {
        // A damaged retained checkpoint covers nothing we can rely on:
        // be conservative and keep the whole WAL (fsck will report it,
        // the next retention pass will age it out).
        return 0;
    }
    return oldest.walOrdinal;
}

void
Store::checkpointAndCompact(std::vector<EstimatorSlot> slots)
{
    writeCheckpoint(std::move(slots));
    compact();
    ++stats_.driftCompactions;
    bumpCounter(ctrDriftCompactions_, "compaction.drift_triggered", 1);
}

void
Store::replayInto(
    const std::function<void(const EstimatorSlot &)> &restore_slot,
    const std::function<void(uint16_t, const trace::TimingRecord &)> &replay)
    const
{
    if (checkpoint_ && restore_slot) {
        for (const auto &slot : checkpoint_->slots)
            restore_slot(slot);
    }
    if (replay) {
        for (const auto &entry : tail_)
            replay(entry.mote, entry.record);
    }
}

void
Store::bumpCounter(obs::Counter *&slot, const char *name,
                   uint64_t delta) const
{
    if (!obs::metricsEnabled())
        return;
    if (slot == nullptr)
        slot = &obs::metrics().counter(config_.metricsScope + name);
    slot->add(delta);
}

namespace {

void
issue(FsckReport &report, bool breaks_ok, std::string kind,
      std::string detail)
{
    if (breaks_ok)
        report.ok = false;
    report.issues.push_back({std::move(kind), std::move(detail)});
}

} // namespace

std::string
FsckReport::text() const
{
    std::string out;
    out += "segments: " + std::to_string(segments) + " (" +
           std::to_string(records) + " records, " +
           std::to_string(tornBytes) + " torn bytes)\n";
    out += "checkpoints: " + std::to_string(checkpoints) + " (" +
           std::to_string(validCheckpoints) + " valid)\n";
    for (const auto &i : issues)
        out += "issue [" + i.kind + "] " + i.detail + "\n";
    out += ok ? "ok: clean (crash artifacts at worst)\n"
              : "NOT ok: would lose data beyond a torn tail\n";
    return out;
}

FsckReport
fsckStore(const std::string &dir)
{
    FsckReport report;
    if (!fs::is_directory(dir)) {
        issue(report, true, "missing", "no store directory at " + dir);
        return report;
    }

    uint64_t newest_valid_ckpt_ordinal = 0;
    bool have_valid_ckpt = false;
    for (uint64_t id : listCheckpointIds(dir)) {
        ++report.checkpoints;
        auto bytes =
            readFileBytes((fs::path(dir) / checkpointFileName(id)).string());
        Checkpoint checkpoint;
        if (bytes && decodeCheckpoint(*bytes, checkpoint)) {
            ++report.validCheckpoints;
            // ids ascend, so the last valid one is the newest.
            newest_valid_ckpt_ordinal = checkpoint.walOrdinal;
            have_valid_ckpt = true;
        } else {
            issue(report, false, "bad-checkpoint",
                  checkpointFileName(id) +
                      " fails validation (recovery skips it)");
        }
    }

    auto ids = listSegmentIds(dir);
    uint64_t running = 0;
    bool first = true;
    for (size_t i = 0; i < ids.size(); ++i) {
        const bool last = i + 1 == ids.size();
        std::string name = segmentFileName(ids[i]);
        auto scan = scanSegment((fs::path(dir) / name).string(), ids[i],
                                nullptr);
        ++report.segments;
        report.records += scan.records;

        if (scan.end == ScanEnd::BadHeader) {
            // A crash while creating the newest segment legitimately
            // leaves a short or headerless file; anywhere else it is
            // real damage.
            issue(report, !last, last ? "torn-tail" : "bad-header",
                  name + ": segment header fails validation");
            continue;
        }
        bool gap_covered = scan.firstOrdinal > running &&
                           have_valid_ckpt &&
                           scan.firstOrdinal <= newest_valid_ckpt_ordinal;
        if (!first && scan.firstOrdinal != running && !gap_covered) {
            issue(report, true, "ordinal-gap",
                  name + ": first ordinal " +
                      std::to_string(scan.firstOrdinal) + ", expected " +
                      std::to_string(running));
        }
        if (first && scan.firstOrdinal > 0 &&
            (!have_valid_ckpt ||
             scan.firstOrdinal > newest_valid_ckpt_ordinal)) {
            issue(report, true, "ordinal-gap",
                  name + ": log starts at ordinal " +
                      std::to_string(scan.firstOrdinal) +
                      " with no checkpoint covering the records before "
                      "it");
        }
        if (scan.end == ScanEnd::TornTail) {
            report.tornBytes += scan.fileBytes - scan.validBytes;
            issue(report, !last, last ? "torn-tail" : "mid-log-corruption",
                  name + ": " +
                      std::to_string(scan.fileBytes - scan.validBytes) +
                      " bytes after the last whole entry" +
                      (last ? " (normal crash artifact)"
                            : " followed by later segments"));
        }
        running = scan.firstOrdinal + scan.records;
        first = false;
    }

    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".tmp")
            issue(report, false, "stray-temp",
                  entry.path().filename().string() +
                      ": crashed atomic write (removed on next open)");
    }
    return report;
}

} // namespace ct::store
