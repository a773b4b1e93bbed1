#include "relay/snapshot.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "fleet/fleet.hh"
#include "store/format.hh"
#include "util/crc16.hh"
#include "util/logging.hh"

namespace ct::relay {

namespace fs = std::filesystem;

const uint8_t kSnapshotMagic[8] = {'C', 'T', 'R', 'E', 'L', 'A', 'Y', '1'};

uint64_t
Snapshot::digest() const
{
    return fleet::snapshotDigest(slots);
}

Snapshot
snapshotFromBank(const net::EstimatorBank &bank, uint64_t id,
                 uint16_t source_node, uint64_t wal_ordinal)
{
    Snapshot out;
    out.id = id;
    out.sourceNode = source_node;
    out.walOrdinal = wal_ordinal;
    out.slots = bank.snapshot();
    return out;
}

Snapshot
snapshotFromCheckpoint(const store::Checkpoint &checkpoint,
                       uint16_t source_node)
{
    Snapshot out;
    out.id = checkpoint.id;
    out.sourceNode = source_node;
    out.walOrdinal = checkpoint.walOrdinal;
    out.slots = checkpoint.slots;
    return out;
}

std::vector<uint8_t>
encodeSnapshotImage(const Snapshot &snapshot)
{
    store::Checkpoint body;
    body.id = snapshot.id;
    body.walOrdinal = snapshot.walOrdinal;
    body.slots = snapshot.slots;
    auto body_bytes = store::encodeCheckpoint(body);

    std::vector<uint8_t> out(kSnapshotMagic, kSnapshotMagic + 8);
    out.reserve(kSnapshotHeaderBytes + body_bytes.size() + 2);
    store::putU32(out, kSnapshotVersion);
    store::putU64(out, snapshot.id);
    store::putU16(out, snapshot.sourceNode);
    store::putU64(out, snapshot.walOrdinal);
    store::putU64(out, snapshot.digest());
    store::putU32(out, uint32_t(body_bytes.size()));
    out.insert(out.end(), body_bytes.begin(), body_bytes.end());
    store::putU16(out, crc16(out.data(), out.size()));
    return out;
}

bool
decodeSnapshotHeader(const std::vector<uint8_t> &image, SnapshotHeader &out)
{
    if (image.size() < kSnapshotHeaderBytes)
        return false;
    out.magicOk = std::memcmp(image.data(), kSnapshotMagic, 8) == 0;
    size_t cursor = 8;
    return store::getU32(image, cursor, out.version) &&
           store::getU64(image, cursor, out.id) &&
           store::getU16(image, cursor, out.sourceNode) &&
           store::getU64(image, cursor, out.walOrdinal) &&
           store::getU64(image, cursor, out.digest) &&
           store::getU32(image, cursor, out.bodyBytes);
}

bool
decodeSnapshotImage(const std::vector<uint8_t> &image, Snapshot &out)
{
    SnapshotHeader header;
    if (!decodeSnapshotHeader(image, header) || !header.magicOk)
        return false;
    if (header.version != kSnapshotVersion)
        return false;
    // Exact length: header + body + trailing CRC, nothing else. A
    // fragment stream that lost or grew bytes fails here before any
    // slot is looked at.
    if (image.size() !=
        kSnapshotHeaderBytes + size_t(header.bodyBytes) + 2) {
        return false;
    }
    size_t crc_at = image.size() - 2;
    uint16_t stored;
    {
        size_t cursor = crc_at;
        if (!store::getU16(image, cursor, stored))
            return false;
    }
    if (stored != crc16(image.data(), crc_at))
        return false;

    std::vector<uint8_t> body(image.begin() + kSnapshotHeaderBytes,
                              image.begin() + crc_at);
    store::Checkpoint checkpoint;
    if (!store::decodeCheckpoint(body, checkpoint))
        return false;
    // Header and body both carry (id, walOrdinal); they must agree.
    if (checkpoint.id != header.id ||
        checkpoint.walOrdinal != header.walOrdinal) {
        return false;
    }

    out.id = header.id;
    out.sourceNode = header.sourceNode;
    out.walOrdinal = header.walOrdinal;
    out.slots = std::move(checkpoint.slots);
    // The digest ties the image to the campaign state it claims to
    // carry: recompute from the decoded slots and require a match.
    return out.digest() == header.digest;
}

std::string
describeSnapshotHeader(const SnapshotHeader &header)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "magic: %s\n"
                  "version: %u\n"
                  "snapshot id: %llu\n"
                  "source node: %u\n"
                  "wal ordinal: %llu\n"
                  "digest: %016llx\n"
                  "body bytes: %u\n",
                  header.magicOk ? "CTRELAY1" : "INVALID", header.version,
                  (unsigned long long)header.id, header.sourceNode,
                  (unsigned long long)header.walOrdinal,
                  (unsigned long long)header.digest, header.bodyBytes);
    return buf;
}

namespace {

size_t
chunkBytesAt(size_t mtu)
{
    CT_ASSERT(mtu > net::kHeaderBytes + kFragmentHeaderBytes,
              "relay mtu too small for one image byte per fragment");
    return mtu - net::kHeaderBytes - kFragmentHeaderBytes;
}

} // namespace

size_t
fragmentCount(size_t image_bytes, size_t mtu)
{
    size_t chunk = chunkBytesAt(mtu);
    return image_bytes == 0 ? 1 : (image_bytes + chunk - 1) / chunk;
}

std::vector<net::Packet>
fragmentSnapshot(const std::vector<uint8_t> &image, uint16_t node,
                 size_t mtu)
{
    size_t chunk = chunkBytesAt(mtu);
    size_t total = fragmentCount(image.size(), mtu);
    CT_ASSERT(total <= UINT32_MAX, "snapshot image too large to fragment");

    std::vector<net::Packet> out;
    out.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        net::Packet packet;
        packet.mote = node;
        packet.seq = uint32_t(i);
        store::putU32(packet.payload, uint32_t(i));
        store::putU32(packet.payload, uint32_t(total));
        size_t begin = i * chunk;
        size_t end = std::min(begin + chunk, image.size());
        packet.payload.insert(packet.payload.end(), image.begin() + begin,
                              image.begin() + end);
        out.push_back(std::move(packet));
    }
    return out;
}

size_t
framedSnapshotBytes(size_t image_bytes, size_t mtu)
{
    return image_bytes +
           fragmentCount(image_bytes, mtu) *
               (net::kHeaderBytes + kFragmentHeaderBytes);
}

std::optional<net::Ack>
SnapshotReassembler::offer(const uint8_t *frame, size_t size)
{
    ++stats_.framesOffered;
    net::Packet packet;
    if (!net::parsePacket(frame, size, packet)) {
        ++stats_.rejected;
        return std::nullopt;
    }
    return accept(packet);
}

std::optional<net::Ack>
SnapshotReassembler::offer(const std::vector<uint8_t> &frame)
{
    return offer(frame.data(), frame.size());
}

std::optional<net::Ack>
SnapshotReassembler::accept(const net::Packet &packet)
{
    size_t cursor = 0;
    uint32_t index = 0, total = 0;
    if (!store::getU32(packet.payload, cursor, index) ||
        !store::getU32(packet.payload, cursor, total)) {
        ++stats_.rejected;
        return std::nullopt;
    }
    // Consistency gates, each a defense-in-depth layer on top of the
    // packet CRC: the fragment header must echo the packet sequence
    // number, announce a sane total, and agree with every fragment
    // accepted before it about both the total and the source node.
    if (total == 0 || index >= total || index != packet.seq) {
        ++stats_.rejected;
        return std::nullopt;
    }
    if ((total_ && *total_ != total) || (node_ && *node_ != packet.mote)) {
        ++stats_.rejected;
        return std::nullopt;
    }
    if (chunks_.count(index)) {
        ++stats_.duplicates;
        return ackState();
    }

    total_ = total;
    node_ = packet.mote;
    auto &chunk = chunks_[index];
    chunk.assign(packet.payload.begin() + long(kFragmentHeaderBytes),
                 packet.payload.end());
    ++stats_.accepted;
    stats_.bytesAccepted += chunk.size();
    while (chunks_.count(nextExpected_))
        ++nextExpected_;
    return ackState();
}

net::Ack
SnapshotReassembler::ackState() const
{
    net::Ack ack;
    ack.mote = node_.value_or(0);
    ack.nextExpected = nextExpected_;
    for (auto it = chunks_.upper_bound(nextExpected_); it != chunks_.end();
         ++it) {
        ack.selective.push_back(it->first);
    }
    return ack;
}

bool
SnapshotReassembler::complete() const
{
    return total_ && chunks_.size() == *total_;
}

bool
SnapshotReassembler::assembleImage(std::vector<uint8_t> &out) const
{
    if (!complete())
        return false;
    out.clear();
    for (const auto &[index, chunk] : chunks_)
        out.insert(out.end(), chunk.begin(), chunk.end());
    return true;
}

bool
SnapshotReassembler::assemble(Snapshot &out) const
{
    std::vector<uint8_t> image;
    return assembleImage(image) && decodeSnapshotImage(image, out);
}

void
writeSnapshotFile(const std::string &path, const Snapshot &snapshot)
{
    fs::path p(path);
    std::string dir = p.parent_path().string();
    if (dir.empty())
        dir = ".";
    fs::create_directories(dir);
    store::writeFileAtomic(dir, p.filename().string(),
                           encodeSnapshotImage(snapshot));
}

std::optional<std::vector<uint8_t>>
readSnapshotImage(const std::string &path)
{
    return store::readFileBytes(path);
}

} // namespace ct::relay
