#include "serve/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/diagnostics.h"
#include "support/failpoint.h"

namespace sherlock::serve {

uint64_t fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

uint64_t entrySum(const std::string& key, const std::string& body) {
  return fnv1a(body, fnv1a(key));
}

/// Writes the whole buffer to an O_CREAT temp file, fsyncs, and renames
/// over `path` — the atomicity that makes a mid-write kill harmless.
bool writeAtomically(const std::string& path, const std::string& data) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

SnapshotStats saveCacheSnapshot(
    const std::string& path, const std::string& compiler,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  SnapshotStats stats;
  try {
    failpoint::check("persist");
    std::ostringstream out;
    out << "sherlock-cache v" << kCacheSnapshotVersion
        << " compiler=" << compiler << " entries=" << entries.size()
        << "\n";
    uint64_t chain = kFnv1aOffset;
    for (const auto& [key, body] : entries) {
      uint64_t sum = entrySum(key, body);
      chain = fnv1a(hex64(sum), chain);
      out << "ENTRY key=" << key.size() << " body=" << body.size()
          << " sum=" << hex64(sum) << "\n"
          << key << "\n"
          << body << "\n";
    }
    out << "END sum=" << hex64(chain) << "\n";
    stats.ok = writeAtomically(path, out.str());
    stats.written = stats.ok ? entries.size() : 0;
  } catch (const std::exception&) {
    stats.ok = false;
  }
  return stats;
}

SnapshotStats loadCacheSnapshot(
    const std::string& path, const std::string& compiler,
    const std::function<void(std::string key, std::string body)>& sink) {
  SnapshotStats stats;
  try {
    failpoint::check("persist");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      // Missing snapshot is a cold first boot, not an error.
      stats.ok = false;
      return stats;
    }

    std::string header;
    if (!std::getline(in, header)) return stats;
    std::istringstream hs(header);
    std::string magic, version, compilerField, entriesField;
    size_t declared = 0;
    hs >> magic >> version >> compilerField >> entriesField;
    if (magic != "sherlock-cache" ||
        version != strCat("v", kCacheSnapshotVersion) ||
        compilerField.rfind("compiler=", 0) != 0 ||
        entriesField.rfind("entries=", 0) != 0) {
      // Unknown or stale snapshot schema: drop it whole.
      stats.dropped = 1;
      return stats;
    }
    try {
      declared = std::stoul(entriesField.substr(8));
    } catch (const std::exception&) {
      stats.dropped = 1;
      return stats;
    }
    if (compilerField.substr(9) != compiler) {
      // Written by a compiler that emits other programs: every entry is
      // stale.
      stats.dropped = std::max<size_t>(declared, 1);
      return stats;
    }

    uint64_t chain = kFnv1aOffset;
    size_t seen = 0;
    for (; seen < declared; ++seen) {
      std::string entryLine;
      if (!std::getline(in, entryLine)) break;  // truncated
      size_t keyBytes = 0, bodyBytes = 0;
      std::string sumHex;
      {
        std::istringstream es(entryLine);
        std::string tag, keyField, bodyField, sumField;
        es >> tag >> keyField >> bodyField >> sumField;
        if (tag != "ENTRY" || keyField.rfind("key=", 0) != 0 ||
            bodyField.rfind("body=", 0) != 0 ||
            sumField.rfind("sum=", 0) != 0)
          break;  // framing broken: can't resync reliably
        try {
          keyBytes = std::stoul(keyField.substr(4));
          bodyBytes = std::stoul(bodyField.substr(5));
        } catch (const std::exception&) {
          break;
        }
        sumHex = sumField.substr(4);
      }
      std::string key(keyBytes, '\0'), body(bodyBytes, '\0');
      if (!in.read(key.data(), static_cast<std::streamsize>(keyBytes)) ||
          in.get() != '\n' ||
          !in.read(body.data(),
                   static_cast<std::streamsize>(bodyBytes)) ||
          in.get() != '\n')
        break;  // truncated mid-entry
      uint64_t sum = entrySum(key, body);
      chain = fnv1a(sumHex, chain);
      if (hex64(sum) != sumHex) {
        ++stats.dropped;  // flipped bytes: drop this entry, keep going
        continue;
      }
      sink(std::move(key), std::move(body));
      ++stats.loaded;
    }
    stats.dropped += declared - seen;

    std::string trailer;
    if (!std::getline(in, trailer) ||
        trailer != strCat("END sum=", hex64(chain))) {
      // The chain disagrees (reordered/foreign entries slipped the
      // per-entry sums, or the trailer is gone). Entries already
      // validated individually stay loaded; just flag the mismatch.
      if (stats.dropped == 0 && seen == declared) ++stats.dropped;
    }
  } catch (const std::exception&) {
    stats.ok = false;
  }
  return stats;
}

}  // namespace sherlock::serve
