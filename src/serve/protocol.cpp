#include "serve/protocol.h"

#include <chrono>
#include <climits>
#include <future>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/executor.h"
#include "support/cancel.h"
#include "support/diagnostics.h"
#include "support/trace.h"

namespace sherlock::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One admitted request. Either it failed before dispatch (error/code
/// carry the diagnostic and the response is synthesized at flush) or it
/// was handed to the executor and `future` yields its response.
struct PendingRequest {
  std::string id;
  std::string error;  ///< pre-dispatch failure (empty = dispatched)
  std::string code;   ///< machine code for `error`
  /// Deadline/cancel handle shared with the executor task, kept here so
  /// a draining session can tighten every in-flight deadline at once.
  std::shared_ptr<CancelToken> cancel;
  std::future<CompileResponse> future;
};

long parseLong(const std::string& key, const std::string& value) {
  try {
    size_t pos = 0;
    long parsed = std::stol(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw Error(strCat("option ", key, " expects an integer, got '", value,
                     "'"));
}

/// An integer option in [lo, hi]: values outside are rejected, never
/// narrowed or wrapped.
long parseInRange(const std::string& key, const std::string& value, long lo,
                  long hi) {
  long parsed = parseLong(key, value);
  checkArg(parsed >= lo && parsed <= hi, "option ", key, " value ", value,
           " is outside [", lo, ", ", hi, "]");
  return parsed;
}

int parseInt(const std::string& key, const std::string& value) {
  return static_cast<int>(parseInRange(key, value, INT_MIN, INT_MAX));
}

double parseDouble(const std::string& key, const std::string& value) {
  try {
    size_t pos = 0;
    double parsed = std::stod(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw Error(strCat("option ", key, " expects a number, got '", value,
                     "'"));
}

void writeResponse(std::ostream& out, const std::string& id,
                   const CompileResponse& response) {
  if (response.ok) {
    out << "RESP " << id << " ok hit=" << (response.cacheHit ? 1 : 0)
        << " direct=" << (response.direct ? 1 : 0)
        << " coalesced=" << (response.coalesced ? 1 : 0)
        << " bytes=" << response.payload.size() << " key=" << response.key
        << " compile_us=" << response.compileUs
        << " total_us=" << response.totalUs << "\n";
  } else {
    out << "RESP " << id << " error code="
        << (response.code.empty() ? "compile_error" : response.code)
        << " bytes=" << response.payload.size() << "\n";
  }
  out << response.payload;
}

/// Reads one '\n'-terminated line (the newline is consumed, not
/// stored). Bytes beyond `cap` are discarded, not buffered — a hostile
/// or corrupt client can't balloon the daemon's memory — and `overLimit`
/// reports that the line was cut. Returns false only at EOF with
/// nothing consumed.
bool boundedGetline(std::istream& in, std::string& line, size_t cap,
                    bool& overLimit) {
  line.clear();
  overLimit = false;
  std::streambuf* buf = in.rdbuf();
  bool any = false;
  for (;;) {
    int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      if (!any) in.setstate(std::ios::eofbit | std::ios::failbit);
      return any;
    }
    any = true;
    if (c == '\n') return true;
    if (line.size() < cap)
      line.push_back(static_cast<char>(c));
    else
      overLimit = true;
  }
}

}  // namespace

void applyOption(RequestOptions& o, const std::string& key,
                 const std::string& value) {
  if (key == "lang") o.lang = value;
  else if (key == "emit") o.emit = value;
  else if (key == "target") o.targetDim = parseInt(key, value);
  else if (key == "tech") o.tech = value;
  else if (key == "strategy") o.strategy = value;
  else if (key == "mra") o.mra = parseInt(key, value);
  else if (key == "fraction") o.fraction = parseDouble(key, value);
  else if (key == "fault-density") o.faultDensity = parseDouble(key, value);
  else if (key == "fault-seed")
    o.faultSeed = static_cast<uint64_t>(parseInRange(key, value, 0, LONG_MAX));
  else if (key == "spare-rows") o.spareRows = parseInt(key, value);
  else if (key == "nand") o.nandLower = parseLong(key, value) != 0;
  else if (key == "opt") o.aggressive = parseLong(key, value) != 0;
  else if (key == "deadline-ms") {
    o.deadlineMs = parseDouble(key, value);
    checkArg(o.deadlineMs >= 0, "deadline-ms must be >= 0");
  } else throw Error(strCat("unknown option '", key, "'"));
}

ServeLoopResult runServeLoop(std::istream& in, std::ostream& out,
                             CompileService& service,
                             const ServeLoopOptions& options) {
  ServeLoopResult result;
  int workers =
      options.maxInflight > 0 ? options.maxInflight : options.threads;
  RequestExecutor executor(workers, options.maxQueue);
  std::vector<PendingRequest> pending;
  // Sequential per-session trace track ids, assigned while the REQ is
  // parsed (single-threaded), so the trace of one request is identical
  // whatever executor thread later compiles it.
  uint32_t nextTrack = 1;

  auto stopRequested = [&] {
    return options.stop &&
           options.stop->load(std::memory_order_relaxed);
  };
  auto publishLoad = [&] {
    service.setLoadGauges(executor.inflight(), executor.queueDepth());
  };
  auto persistIfDirty = [&] {
    if (!options.cachePersistPath.empty() && service.cacheDirty())
      service.saveCache(options.cachePersistPath);
  };

  // Waits out every pending response and writes them in request order.
  auto flush = [&] {
    for (PendingRequest& request : pending) {
      CompileResponse response;
      if (!request.error.empty()) {
        response.ok = false;
        response.code = request.code;
        response.payload = strCat("error: ", request.error, "\n");
      } else {
        response = request.future.get();
      }
      writeResponse(out, request.id, response);
    }
    result.requests += pending.size();
    pending.clear();
    publishLoad();
    persistIfDirty();
    out.flush();
  };

  std::string line;
  bool overLimit = false;
  while (!stopRequested() &&
         boundedGetline(in, line, options.maxRequestBytes, overLimit)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    if (directive[0] == '#') continue;

    if (directive == "REQ") {
      PendingRequest request;
      RequestOptions reqOptions = options.defaults;
      if (!(ls >> request.id)) {
        out << "PROTOCOL-ERROR REQ needs an id\n";
        out.flush();
        continue;
      }
      if (overLimit) {
        request.error = strCat("request line exceeds ",
                               options.maxRequestBytes, " bytes");
        request.code = "request_too_large";
      }
      std::string pair;
      while (ls >> pair) {
        size_t eq = pair.find('=');
        try {
          checkArg(eq != std::string::npos && eq > 0,
                   "malformed option '", pair, "'");
          applyOption(reqOptions, pair.substr(0, eq),
                      pair.substr(eq + 1));
        } catch (const Error& e) {
          if (request.error.empty()) {
            request.error = e.what();
            request.code = "bad_option";
          }
        }
      }
      // Body lines verbatim until END, with the body (not just single
      // lines) held to maxRequestBytes: an oversized body keeps being
      // consumed — so the protocol stream stays in sync — but no longer
      // buffered. EOF before END is a truncated request: report it
      // instead of compiling a half kernel.
      bool terminated = false;
      bool tooLarge = false;
      std::string body;
      while (boundedGetline(in, line, options.maxRequestBytes,
                            overLimit)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line == "END") {
          terminated = true;
          break;
        }
        if (overLimit ||
            body.size() + line.size() + 1 > options.maxRequestBytes) {
          tooLarge = true;
          continue;
        }
        body += line;
        body += '\n';
      }
      if (request.error.empty()) {
        if (tooLarge) {
          request.error = strCat("request body exceeds ",
                                 options.maxRequestBytes, " bytes");
          request.code = "request_too_large";
        } else if (!terminated) {
          request.error = "truncated request: EOF before END";
          request.code = "truncated";
        }
      }

      if (request.error.empty()) {
        // Dispatch now — the loop keeps reading while this compiles —
        // or shed immediately if the executor is saturated. The BUSY
        // line jumps the RESP ordering on purpose: a client throttling
        // on it needs the signal now, not after the batch drains.
        request.cancel = std::make_shared<CancelToken>();
        if (reqOptions.deadlineMs > 0)
          request.cancel->tightenAfterMs(reqOptions.deadlineMs);
        auto promise = std::make_shared<std::promise<CompileResponse>>();
        request.future = promise->get_future();
        uint32_t track = nextTrack++;
        auto task = [&service, promise, cancel = request.cancel, track,
                     id = request.id, source = std::move(body),
                     reqOptions, enqueued = Clock::now()] {
          trace::ScopedTrack scopedTrack(track, strCat("req ", id));
          double waitUs = std::chrono::duration<double, std::micro>(
                              Clock::now() - enqueued)
                              .count();
          service.recordQueueWait(waitUs);
          // Wall-clock values would break the deterministic clock's
          // byte-stability guarantee, so they stay out of the args.
          std::string args;
          if (!trace::Tracer::instance().deterministic())
            args = strCat("\"queue_wait_us\": ", waitUs);
          trace::Span span("serve", "request", std::move(args));
          promise->set_value(
              service.handle(source, reqOptions, cancel.get()));
        };
        if (!executor.trySubmit(std::move(task))) {
          out << "BUSY " << request.id
              << " retry_after_ms=" << options.retryAfterMs << "\n";
          out.flush();
          service.noteShed();
          publishLoad();
          ++result.shed;
          continue;
        }
        publishLoad();
      }
      pending.push_back(std::move(request));
      if (pending.size() >= options.maxBatch) flush();
    } else if (directive == "FLUSH") {
      flush();
    } else if (directive == "STATS") {
      flush();
      std::string json = service.metricsJson();
      out << "STATS-RESP bytes=" << json.size() << "\n" << json;
      out.flush();
    } else if (directive == "TRACE") {
      flush();
      std::string json = trace::Tracer::instance().exportJson();
      out << "TRACE-RESP bytes=" << json.size() << "\n" << json;
      out.flush();
    } else if (directive == "QUIT") {
      flush();
      return result;
    } else if (directive == "SHUTDOWN") {
      flush();
      result.shutdown = true;
      return result;
    } else {
      out << "PROTOCOL-ERROR unknown directive '" << directive << "'\n";
      out.flush();
    }
  }

  // EOF or a drain signal. Give whatever is still in flight a bounded
  // grace — tightening each token to now + drainDeadlineMs turns a
  // stuck compile into a deadline_exceeded response instead of a hung
  // shutdown — then write everything out.
  if (stopRequested()) {
    for (PendingRequest& request : pending)
      if (request.cancel) request.cancel->tightenAfterMs(options.drainDeadlineMs);
  }
  flush();
  return result;
}

}  // namespace sherlock::serve
