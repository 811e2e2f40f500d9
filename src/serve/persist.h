// Crash-safe persistence for the compile service's canonical program
// cache: a checksummed, versioned, length-framed snapshot written
// atomically (temp file + rename) so a daemon killed at any instant
// leaves either the previous snapshot or the new one — never a torn
// file — and a restarted daemon serves warm canonical hits.
//
// Format (text framing, byte-counted payloads, like the serve
// protocol):
//
//   sherlock-cache v<V> entries=<N>
//   ENTRY key=<K> body=<B> sum=<16 hex>     (N times)
//   <K key bytes>\n
//   <B body bytes>\n
//   END sum=<16 hex>
//
// Per-entry `sum` is FNV-1a 64 over key + body; the trailing END sum
// chains every entry sum, so truncation and reordering are detected as
// well as flipped bytes. Loading is defensive end to end: a version
// mismatch drops the whole snapshot (stale canonicalization schema), a
// corrupt entry is dropped and loading continues, broken framing drops
// the remainder — all counted, never thrown. A missing file is simply
// zero entries (first boot).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace sherlock::serve {

/// Bump when the snapshot framing, the cache-key/canonicalization schema
/// or the cached payloads (ISA text, stats report) change incompatibly;
/// old snapshots are then dropped whole.
inline constexpr int kCacheSnapshotVersion = 3;

struct SnapshotStats {
  size_t written = 0;  ///< entries in the snapshot just saved
  size_t loaded = 0;   ///< entries accepted on load
  size_t dropped = 0;  ///< entries rejected (corrupt/stale/truncated)
  bool ok = true;      ///< I/O-level success (false: nothing durable)
};

/// Writes `entries` (key, body) to `path` atomically. Never throws:
/// I/O failures come back as ok=false.
SnapshotStats saveCacheSnapshot(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Streams every entry that validates out of the snapshot at `path`
/// into `sink`, in file order. Never throws; corrupt or stale content
/// is dropped and counted.
SnapshotStats loadCacheSnapshot(
    const std::string& path,
    const std::function<void(std::string key, std::string body)>& sink);

}  // namespace sherlock::serve
