/**
 * @file
 * FNV-1a, the library's one digest: estimator snapshots
 * (fleet::snapshotDigest), layouts (layout::layoutDigest) and property
 * names (ct::check) all fold their bytes through it.
 */

#ifndef CT_UTIL_HASH_HH
#define CT_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace ct {

/** FNV-1a over @p size bytes at @p data, continuing from @p hash. */
inline uint64_t
fnv1a(const void *data, size_t size, uint64_t hash = 14695981039346656037ULL)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i)
        hash = (hash ^ bytes[i]) * 1099511628211ULL;
    return hash;
}

/** fnv1a over @p value's eight bytes, least significant first, so the
 *  digest never depends on the host's byte order. */
inline uint64_t
fnv1aWord(uint64_t value, uint64_t hash)
{
    for (int i = 0; i < 8; ++i)
        hash = (hash ^ ((value >> (8 * i)) & 0xff)) * 1099511628211ULL;
    return hash;
}

} // namespace ct

#endif // CT_UTIL_HASH_HH
