// The in-process serving rig of the classify_binary and stream_text
// workloads: an InferenceServer behind one loopback net::FrontEnd shard,
// plus the benchmark's client connections. The thread budget is fixed:
// one front-end shard thread, one batching dispatcher running batches on
// one thread, and the caller's client thread. The server's threads are
// pinned to one CPU (ScopedCpuPin), and the workloads run their client
// on the same CPU.
//
// In traced runs a TimingHandler wraps serve::NetHandler and records a
// serve.handler span from OnFrame/OnTextLine to `respond`, whose parent
// is the client span of the request. Each connection has one request
// outstanding, so the client publishes that span's id in its slot; the
// handler finds the slot from the request itself (see TagTimeoutMs and
// the session id of a STREAM_FEED line).

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"
#include "net/front_end.h"
#include "serve/net_handler.h"
#include "serve/server.h"

namespace perfbench {

inline constexpr std::size_t kMaxSlots = 8;

/// CLASSIFY timeout of the requests sent on slot `slot`: a deadline far
/// beyond any reply, offset by the slot so the traced handler can link
/// the request to its client span. Untraced runs send the same bytes.
inline std::uint32_t TagTimeoutMs(std::size_t slot) {
  return 60000 + static_cast<std::uint32_t>(slot);
}

class TimingHandler : public rpm::net::RequestHandler {
 public:
  TimingHandler(rpm::net::RequestHandler* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  /// Publishes the client span of slot `slot`'s outstanding request.
  void SetParent(std::size_t slot, std::uint64_t span) {
    parents_[slot].store(span, std::memory_order_release);
  }

  void OnTextLine(std::size_t shard, const std::string& line,
                  Respond respond) override;
  void OnFrame(std::size_t shard, const rpm::net::Frame& frame,
               Respond respond) override;

 private:
  Respond Timed(std::size_t slot, Respond respond);

  rpm::net::RequestHandler* const inner_;
  SpanRecorder* const spans_;
  std::array<std::atomic<std::uint64_t>, kMaxSlots> parents_{};
};

/// Server, front end and client connections, torn down in that reverse
/// order by the destructor.
struct ServingRig {
  ServingRig() = default;
  ~ServingRig();
  ServingRig(const ServingRig&) = delete;
  ServingRig& operator=(const ServingRig&) = delete;

  std::unique_ptr<rpm::serve::InferenceServer> server;
  std::unique_ptr<rpm::serve::NetHandler> handler;
  std::unique_ptr<TimingHandler> timing;  ///< traced runs only
  std::unique_ptr<rpm::net::FrontEnd> front;
  std::vector<std::unique_ptr<Connection>> conns;

  std::vector<Connection*> Raw() const;
};

/// Registers `clf` as `model`, starts the server and the front end, both
/// pinned to one CPU, on an ephemeral loopback port, and opens
/// `connections` connections of one codec.
/// Throws std::runtime_error when the front end or a connection fails.
std::unique_ptr<ServingRig> StartRig(rpm::core::RpmClassifier clf,
                                     const std::string& model,
                                     std::size_t connections, bool binary,
                                     SpanRecorder* spans);

/// The METRICS exposition, fetched over `conn` while it is idle.
std::string ScrapeMetrics(Connection& conn);

/// Per-layer figures both serving workloads take from a traced run's
/// spans: each training stage's median over the set-ups ("<stage>_s",
/// in seconds); serve.handler_us, the median handler span of the
/// measured phase (spans starting at or after `measure_start`); and
/// net.wire_us, the median over requests of the client span minus its
/// handler span.
std::map<std::string, double> ServingLayers(const SpanRecorder& spans,
                                            Clock::time_point measure_start);

/// Per-interval rates: events per second in each whole `interval_s`
/// slice of [0, span_s), from event times in seconds since the start and
/// their weights.
std::vector<double> IntervalRates(const std::vector<double>& times_s,
                                  const std::vector<double>& weights,
                                  double span_s, double interval_s);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
