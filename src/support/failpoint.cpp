#include "support/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/parallel.h"  // splitmix64

namespace sherlock::failpoint {

FailPoints& FailPoints::instance() {
  static FailPoints fp;
  return fp;
}

FailPoints::Point FailPoints::parseAction(const std::string& name,
                                          const std::string& action,
                                          uint64_t seed) {
  Point p;
  // Seed the per-point stream from (global seed, name) so each point's
  // trigger sequence is independent and reproducible.
  uint64_t nameHash = 1469598103934665603ULL;
  for (unsigned char c : name) {
    nameHash ^= c;
    nameHash *= 1099511628211ULL;
  }
  p.rngState = deriveSeed(seed, nameHash);

  if (action == "err") {
    p.action = Action::Error;
    return p;
  }
  if (action.size() > 7 && action.compare(0, 5, "delay") == 0 &&
      action.compare(action.size() - 2, 2, "ms") == 0) {
    try {
      size_t pos = 0;
      std::string digits = action.substr(5, action.size() - 7);
      int ms = std::stoi(digits, &pos);
      if (pos == digits.size() && ms >= 0) {
        p.action = Action::Delay;
        p.delayMs = ms;
        return p;
      }
    } catch (const std::exception&) {
    }
    throw Error(strCat("failpoint '", name, "': bad delay '", action,
                       "' (want delay<N>ms)"));
  }
  try {
    size_t pos = 0;
    double prob = std::stod(action, &pos);
    if (pos == action.size() && prob >= 0.0 && prob <= 1.0) {
      p.action = Action::Probability;
      p.probability = prob;
      return p;
    }
  } catch (const std::exception&) {
  }
  throw Error(strCat("failpoint '", name, "': bad action '", action,
                     "' (want a probability in [0,1], 'err', or "
                     "'delay<N>ms')"));
}

void FailPoints::configure(const std::string& spec, uint64_t seed) {
  std::map<std::string, Point> points;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    size_t colon = entry.find(':');
    checkArg(colon != std::string::npos && colon > 0,
             "failpoint entry '", entry, "' wants <name>:<action>");
    std::string name = entry.substr(0, colon);
    points[name] = parseAction(name, entry.substr(colon + 1), seed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  points_ = std::move(points);
  enabled_.store(!points_.empty(), std::memory_order_relaxed);
}

bool FailPoints::configureFromEnv() {
  const char* spec = std::getenv("SHERLOCK_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return false;
  uint64_t seed = 1;
  if (const char* s = std::getenv("SHERLOCK_FAILPOINT_SEED")) {
    try {
      seed = std::stoull(s);
    } catch (const std::exception&) {
      throw Error(strCat("SHERLOCK_FAILPOINT_SEED: bad seed '", s, "'"));
    }
  }
  configure(spec, seed);
  return true;
}

void FailPoints::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

void FailPoints::evaluate(const char* name) {
  int delayMs = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return;
    Point& p = it->second;
    ++p.evaluations;
    switch (p.action) {
      case Action::Error:
        ++p.triggers;
        throw InjectedFault(strCat("injected fault at '", name, "'"));
      case Action::Probability: {
        // One splitmix64 draw per evaluation; the high 53 bits make a
        // uniform double in [0, 1).
        p.rngState = splitmix64(p.rngState);
        double u = static_cast<double>(p.rngState >> 11) * 0x1.0p-53;
        if (u < p.probability) {
          ++p.triggers;
          throw InjectedFault(strCat("injected fault at '", name, "'"));
        }
        return;
      }
      case Action::Delay:
        ++p.triggers;
        delayMs = p.delayMs;
        break;
    }
  }
  // Sleep outside the lock so a delay point doesn't serialize every
  // other point behind it.
  if (delayMs > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
}

uint64_t FailPoints::evaluations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.evaluations;
}

uint64_t FailPoints::triggers(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.triggers;
}

std::vector<std::pair<std::string, uint64_t>> FailPoints::allTriggers()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(points_.size());
  for (const auto& [name, point] : points_)
    out.emplace_back(name, point.triggers);
  return out;
}

}  // namespace sherlock::failpoint
