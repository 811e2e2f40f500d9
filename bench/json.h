// Minimal JSON emitter for the benchmark harnesses: enough to write the
// machine-readable artifacts CI uploads (flat objects, arrays of objects,
// numbers, strings, booleans) without pulling in a dependency. Numbers
// are written with max_digits10 so doubles round-trip.
#pragma once

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace sherlock::bench {

/// Version of the BENCH_*.json artifact schema. Every emitter stamps
/// this as "schema_version"; scripts/compare_bench.py refuses to gate a
/// run against a baseline from a different version (artifacts without
/// the field are treated as version 1). Bump when renaming/removing
/// fields the gates read — additive fields do not need a bump. v2 marks
/// the introduction of the field itself.
inline constexpr int kBenchSchemaVersion = 2;

/// Build-once JSON value tree. Construction order is preserved for
/// object keys so emitted artifacts diff cleanly run-over-run.
class Json {
 public:
  static Json object() { return Json(Kind::Object); }
  static Json array() { return Json(Kind::Array); }
  static Json str(std::string s) {
    Json j(Kind::String);
    j.string_ = std::move(s);
    return j;
  }
  static Json num(double v) {
    Json j(Kind::Number);
    j.number_ = v;
    return j;
  }
  static Json num(long v) { return num(static_cast<double>(v)); }
  static Json num(int v) { return num(static_cast<double>(v)); }
  static Json boolean(bool b) {
    Json j(Kind::Bool);
    j.bool_ = b;
    return j;
  }

  Json& set(const std::string& key, Json value) {
    keys_.push_back(key);
    values_.push_back(std::move(value));
    return *this;
  }
  Json& set(const std::string& key, const std::string& v) {
    return set(key, str(v));
  }
  Json& set(const std::string& key, const char* v) { return set(key, str(v)); }
  Json& set(const std::string& key, double v) { return set(key, num(v)); }
  Json& set(const std::string& key, long v) { return set(key, num(v)); }
  Json& set(const std::string& key, int v) { return set(key, num(v)); }
  Json& set(const std::string& key, bool v) { return set(key, boolean(v)); }

  Json& push(Json value) {
    values_.push_back(std::move(value));
    return *this;
  }

  std::string dump(int indent = 2) const {
    std::ostringstream out;
    write(out, indent, 0);
    out << "\n";
    return out.str();
  }

 private:
  enum class Kind { Object, Array, String, Number, Bool };
  explicit Json(Kind k) : kind_(k) {}

  static void writeString(std::ostream& out, const std::string& s) {
    out << '"';
    for (char c : s) {
      switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                << static_cast<int>(c) << std::dec << std::setfill(' ');
          } else {
            out << c;
          }
      }
    }
    out << '"';
  }

  void write(std::ostream& out, int indent, int depth) const {
    const std::string pad(static_cast<size_t>(indent) * (depth + 1), ' ');
    const std::string close(static_cast<size_t>(indent) * depth, ' ');
    switch (kind_) {
      case Kind::String:
        writeString(out, string_);
        break;
      case Kind::Bool:
        out << (bool_ ? "true" : "false");
        break;
      case Kind::Number:
        if (!std::isfinite(number_)) {
          out << "null";  // JSON has no inf/nan
        } else if (number_ == std::floor(number_) &&
                   std::abs(number_) < 1e15) {
          out << static_cast<long long>(number_);
        } else {
          out << std::setprecision(
                     std::numeric_limits<double>::max_digits10)
              << number_;
        }
        break;
      case Kind::Object: {
        if (keys_.empty()) {
          out << "{}";
          break;
        }
        out << "{\n";
        for (size_t i = 0; i < keys_.size(); ++i) {
          out << pad;
          writeString(out, keys_[i]);
          out << ": ";
          values_[i].write(out, indent, depth + 1);
          out << (i + 1 < keys_.size() ? ",\n" : "\n");
        }
        out << close << "}";
        break;
      }
      case Kind::Array: {
        if (values_.empty()) {
          out << "[]";
          break;
        }
        out << "[\n";
        for (size_t i = 0; i < values_.size(); ++i) {
          out << pad;
          values_[i].write(out, indent, depth + 1);
          out << (i + 1 < values_.size() ? ",\n" : "\n");
        }
        out << close << "]";
        break;
      }
    }
  }

  Kind kind_;
  std::string string_;
  double number_ = 0;
  bool bool_ = false;
  std::vector<std::string> keys_;
  std::vector<Json> values_;
};

/// The path after `--json` on a bench's command line; empty without one.
inline std::string jsonPathArg(int argc, char** argv) {
  std::string path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") path = argv[++i];
  return path;
}

/// Writes a bench artifact and says where.
inline void writeJson(const std::string& path, const Json& doc) {
  std::ofstream(path) << doc.dump();
  std::cout << "\nWrote JSON to " << path << "\n";
}

}  // namespace sherlock::bench
