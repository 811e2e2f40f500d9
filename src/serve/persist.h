// Crash-safe persistence for the compile service's canonical program
// cache: a checksummed, versioned, length-framed snapshot written
// atomically (temp file + rename) so a daemon killed at any instant
// leaves either the previous snapshot or the new one — never a torn
// file — and a restarted daemon serves warm canonical hits.
//
// Format (text framing, byte-counted payloads, like the serve
// protocol):
//
//   sherlock-cache v<V> compiler=<16 hex> entries=<N>
//   ENTRY key=<K> body=<B> sum=<16 hex>     (N times)
//   <K key bytes>\n
//   <B body bytes>\n
//   END sum=<16 hex>
//
// Per-entry `sum` is FNV-1a 64 over key + body; the trailing END sum
// chains every entry sum, so truncation and reordering are detected as
// well as flipped bytes. `compiler` fingerprints the build that wrote
// the bodies (CompileService::compilerFingerprint), so a daemon restarted
// on a compiler that emits other programs does not serve stale ones.
// Loading is defensive end to end: a version or compiler mismatch drops
// the whole snapshot, a corrupt entry is dropped and loading continues,
// broken framing drops the remainder — all counted, never thrown. A
// missing file is simply zero entries (first boot).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sherlock::serve {

/// Bump when the snapshot framing or the cache-key/canonicalization
/// schema changes incompatibly; old snapshots are then dropped whole.
/// A change in the cached payloads alone moves the compiler fingerprint
/// instead.
inline constexpr int kCacheSnapshotVersion = 4;

/// FNV-1a 64 over `bytes`, continuing from `h`: the snapshot checksums,
/// and the hash behind the compiler fingerprint.
inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
uint64_t fnv1a(std::string_view bytes, uint64_t h = kFnv1aOffset);

/// `v` as 16 lowercase hex digits.
std::string hex64(uint64_t v);

struct SnapshotStats {
  size_t written = 0;  ///< entries in the snapshot just saved
  size_t loaded = 0;   ///< entries accepted on load
  size_t dropped = 0;  ///< entries rejected (corrupt/stale/truncated)
  bool ok = true;      ///< I/O-level success (false: nothing durable)
};

/// Writes `entries` (key, body), compiled by the build fingerprinted
/// `compiler`, to `path` atomically. Never throws: I/O failures come
/// back as ok=false.
SnapshotStats saveCacheSnapshot(
    const std::string& path, const std::string& compiler,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Streams every entry that validates out of the snapshot at `path`
/// into `sink`, in file order. Never throws; corrupt or stale content
/// is dropped and counted, and a snapshot stamped with a compiler other
/// than `compiler` loads nothing (its entries count as dropped).
SnapshotStats loadCacheSnapshot(
    const std::string& path, const std::string& compiler,
    const std::function<void(std::string key, std::string body)>& sink);

}  // namespace sherlock::serve
