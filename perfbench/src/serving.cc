#include "serving.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "staged.h"

namespace perfbench {

TimingHandler::Respond TimingHandler::Timed(std::size_t slot,
                                            Respond respond) {
  const std::uint64_t parent =
      slot < kMaxSlots ? parents_[slot].load(std::memory_order_acquire) : 0;
  const Clock::time_point start = Clock::now();
  return [this, parent, start,
          respond = std::move(respond)](rpm::net::Response response) {
    spans_->Record("serve.handler", spans_->NewId(), parent, start,
                   Clock::now());
    respond(std::move(response));
  };
}

void TimingHandler::OnTextLine(std::size_t shard, const std::string& line,
                               Respond respond) {
  // "STREAM_FEED s<N> ...": the rig's sessions are s1, s2, ... in slot
  // order on a fresh server.
  std::size_t slot = kMaxSlots;
  static constexpr char kFeed[] = "STREAM_FEED s";
  if (line.compare(0, sizeof(kFeed) - 1, kFeed) == 0) {
    slot = std::strtoul(line.c_str() + sizeof(kFeed) - 1, nullptr, 10) - 1;
  }
  inner_->OnTextLine(shard, line, Timed(slot, std::move(respond)));
}

void TimingHandler::OnFrame(std::size_t shard, const rpm::net::Frame& frame,
                            Respond respond) {
  std::size_t slot = kMaxSlots;
  if (frame.verb == static_cast<std::uint8_t>(rpm::net::BinaryVerb::kClassify)) {
    rpm::net::PayloadReader reader(frame.payload);
    std::string model;
    std::uint32_t timeout_ms = 0;
    if (reader.Str(&model) && reader.U32(&timeout_ms)) {
      slot = timeout_ms - TagTimeoutMs(0);
    }
  }
  inner_->OnFrame(shard, frame, Timed(slot, std::move(respond)));
}

ServingRig::~ServingRig() {
  conns.clear();
  if (front != nullptr) front->Stop();
  if (server != nullptr) server->Shutdown();
}

std::vector<Connection*> ServingRig::Raw() const {
  std::vector<Connection*> out;
  for (const auto& c : conns) out.push_back(c.get());
  return out;
}

std::unique_ptr<ServingRig> StartRig(rpm::core::RpmClassifier clf,
                                     const std::string& model,
                                     std::size_t connections, bool binary,
                                     SpanRecorder* spans) {
  // The server's threads start under the pin and keep it.
  const ScopedCpuPin pin;
  rpm::serve::ServerOptions options;
  options.num_shards = 1;
  options.batching.max_batch_size = 32;
  options.batching.max_linger = std::chrono::microseconds(150);
  options.batching.max_queue_depth = 1024;
  options.batching.num_threads = 1;  // 0 would mean every core
  options.default_timeout = std::chrono::seconds(60);
  options.streaming.reap_interval = std::chrono::nanoseconds::zero();

  auto rig = std::make_unique<ServingRig>();
  rig->server = std::make_unique<rpm::serve::InferenceServer>(options);
  rig->server->AddModel(model, std::move(clf));
  rig->handler = std::make_unique<rpm::serve::NetHandler>(rig->server.get());
  rpm::net::RequestHandler* handler = rig->handler.get();
  if (spans != nullptr) {
    rig->timing = std::make_unique<TimingHandler>(handler, spans);
    handler = rig->timing.get();
  }
  rpm::net::FrontEndOptions front_options;
  front_options.tcp_port = 0;
  front_options.num_shards = 1;
  front_options.metrics = &rig->server->metrics();
  rig->front = std::make_unique<rpm::net::FrontEnd>(handler, front_options);
  if (!rig->front->Start()) {
    throw std::runtime_error("front end failed to start");
  }
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = Connection::Open(rig->front->port(), binary);
    if (conn == nullptr) throw std::runtime_error("cannot connect");
    rig->conns.push_back(std::move(conn));
  }
  return rig;
}

std::string ScrapeMetrics(Connection& conn) {
  if (conn.binary()) {
    rpm::net::Frame reply;
    if (!conn.Send(rpm::net::EncodeFrame(rpm::net::BinaryVerb::kMetrics,
                                         rpm::net::WireStatus::kOk, "")) ||
        !conn.ReadFrame(&reply)) {
      throw std::runtime_error("METRICS failed");
    }
    rpm::net::PayloadReader reader(reply.payload);
    std::string text;
    if (reply.status != 0 || !reader.Blob(&text)) {
      throw std::runtime_error("METRICS reply malformed");
    }
    return text;
  }
  // Text METRICS: "OK metrics", the exposition, then "# EOF".
  std::string line;
  if (!conn.Send("METRICS\n") || !conn.ReadLine(&line) ||
      line != "OK metrics") {
    throw std::runtime_error("METRICS failed");
  }
  std::string text;
  while (conn.ReadLine(&line)) {
    if (line == "# EOF") return text;
    text += line;
    text += '\n';
  }
  throw std::runtime_error("METRICS reply truncated");
}

std::map<std::string, double> ServingLayers(const SpanRecorder& spans,
                                            Clock::time_point measure_start) {
  std::map<std::string, double> layers;
  for (const char* stage : kStages) {
    std::vector<double> seconds = spans.Micros(stage);
    for (double& v : seconds) v *= 1e-6;
    layers[std::string(stage) + "_s"] = Median(seconds);
  }
  const std::vector<Span> all = spans.Snapshot();
  std::map<std::uint64_t, double> handler_by_parent;
  std::vector<double> handler_us;
  for (const Span& s : all) {
    if (s.name == "serve.handler" && s.start >= measure_start && s.parent != 0) {
      handler_by_parent[s.parent] = s.micros();
      handler_us.push_back(s.micros());
    }
  }
  std::vector<double> wire_us;
  for (const Span& s : all) {
    if (s.name != "client.request") continue;
    const auto it = handler_by_parent.find(s.id);
    if (it != handler_by_parent.end()) wire_us.push_back(s.micros() - it->second);
  }
  layers["serve.handler_us"] = Median(handler_us);
  layers["net.wire_us"] = Median(wire_us);
  return layers;
}

std::vector<double> IntervalRates(const std::vector<double>& times_s,
                                  const std::vector<double>& weights,
                                  double span_s, double interval_s) {
  const std::size_t slices =
      std::max<std::size_t>(1, std::size_t(span_s / interval_s));
  std::vector<double> sums(slices, 0.0);
  for (std::size_t i = 0; i < times_s.size(); ++i) {
    const std::size_t k = std::size_t(times_s[i] / interval_s);
    if (k < slices) sums[k] += weights[i];
  }
  for (double& s : sums) s /= interval_s;
  return sums;
}

}  // namespace perfbench
