#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/exposition.h"
#include "obs/trace.h"

namespace rpm::serve {

// One lock domain: a batching queue and a session manager that only
// this shard's traffic touches, plus the shard-labeled metric cells.
struct InferenceServer::Shard {
  /// Forwards stream events to the global ServerStats facade and the
  /// shard-labeled cells in the same registry, so STATS aggregates and
  /// METRICS still breaks the numbers down per shard.
  class Sink : public stream::StreamStatsSink {
   public:
    ServerStats* stats = nullptr;
    obs::Gauge* sessions = nullptr;
    obs::Counter* feeds = nullptr;
    obs::Counter* samples = nullptr;
    obs::Counter* decisions = nullptr;

    void OnOpen() override {
      stats->RecordStreamOpen();
      sessions->Add(1);
    }
    void OnClose() override {
      stats->RecordStreamClose();
      sessions->Add(-1);
    }
    void OnEvict() override {
      stats->RecordStreamEvict();
      sessions->Add(-1);
    }
    void OnFeed(std::size_t accepted, bool truncated) override {
      stats->RecordStreamFeed(accepted, truncated);
      feeds->Increment();
      samples->Increment(accepted);
    }
    void OnDecision(double score_us, bool early) override {
      stats->RecordStreamDecision(score_us, early);
      decisions->Increment();
    }
  };

  Sink sink;
  obs::Counter* requests = nullptr;
  std::unique_ptr<BatchingQueue> queue;
  std::unique_ptr<stream::StreamSessionManager> streams;
};

InferenceServer::InferenceServer(ServerOptions options)
    : options_(std::move(options)) {
  const std::size_t num_shards =
      options_.num_shards == 0 ? 1 : options_.num_shards;
  options_.num_shards = num_shards;
  obs::MetricRegistry& reg = stats_.registry();
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const obs::Labels labels{{"shard", std::to_string(i)}};
    shard->sink.stats = &stats_;
    shard->sink.sessions = reg.GetGauge(
        "rpm_stream_shard_sessions",
        "Open stream sessions homed on this shard", labels);
    shard->sink.feeds = reg.GetCounter(
        "rpm_stream_shard_feeds_total",
        "STREAM_FEED calls handled by this shard", labels);
    shard->sink.samples = reg.GetCounter(
        "rpm_stream_shard_samples_total",
        "Samples accepted into this shard's sessions", labels);
    shard->sink.decisions = reg.GetCounter(
        "rpm_stream_shard_decisions_total",
        "Window decisions emitted by this shard's sessions", labels);
    shard->requests = reg.GetCounter(
        "rpm_serve_shard_requests_total",
        "CLASSIFY requests submitted through this shard", labels);
    shard->queue = std::make_unique<BatchingQueue>(options_.batching, &stats_);
    stream::StreamManagerOptions stream_opts = options_.streaming;
    stream_opts.id_start = i + 1;
    stream_opts.id_stride = num_shards;
    shard->streams = std::make_unique<stream::StreamSessionManager>(
        stream_opts, &shard->sink);
    shards_.push_back(std::move(shard));
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::size_t InferenceServer::LoadModel(const std::string& name,
                                       const std::string& path) {
  return registry_.Load(name, path);
}

void InferenceServer::AddModel(const std::string& name,
                               core::RpmClassifier clf) {
  registry_.Put(name, std::move(clf));
}

bool InferenceServer::UnloadModel(const std::string& name) {
  return registry_.Unload(name);
}

void InferenceServer::ClassifyWithCallback(const std::string& model,
                                           ts::Series values,
                                           std::chrono::microseconds timeout,
                                           std::size_t shard,
                                           BatchingQueue::Callback done) {
  Shard& s = *shards_[shard % shards_.size()];
  s.requests->Increment();
  ModelHandle handle = registry_.Get(model);
  if (handle == nullptr) {
    stats_.RecordNotFound();
    done({StatusCode::kNotFound, 0, 0.0});
    return;
  }
  s.queue->SubmitWithCallback(std::move(handle), std::move(values),
                              BatchingQueue::Clock::now() + timeout,
                              std::move(done));
}

std::future<ClassifyResult> InferenceServer::ClassifyAsync(
    const std::string& model, ts::Series values,
    std::chrono::microseconds timeout, std::size_t shard) {
  auto promise = std::make_shared<std::promise<ClassifyResult>>();
  std::future<ClassifyResult> future = promise->get_future();
  ClassifyWithCallback(model, std::move(values), timeout, shard,
                       [promise](ClassifyResult result) {
                         promise->set_value(result);
                       });
  return future;
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::Series values,
                                         std::chrono::microseconds timeout) {
  return ClassifyAsync(model, std::move(values), timeout).get();
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::Series values) {
  return Classify(model, std::move(values), options_.default_timeout);
}

stream::StreamSessionManager::OpenResult InferenceServer::OpenStream(
    const std::string& model, stream::StreamOptions options,
    std::size_t shard) {
  ModelHandle handle = registry_.Get(model);
  if (handle == nullptr) {
    stats_.RecordNotFound();
    stream::StreamSessionManager::OpenResult result;
    result.status = stream::StreamSessionManager::OpenStatus::kNotFound;
    result.error = "no model named '" + model + "'";
    return result;
  }
  stream::StreamModel pinned;
  pinned.engine = &handle->engine;
  pinned.owner = std::move(handle);
  return shards_[shard % shards_.size()]->streams->Open(std::move(pinned),
                                                        options);
}

std::size_t InferenceServer::ShardOfStreamId(std::string_view id) const {
  if (id.size() < 2 || id[0] != 's') return 0;
  std::uint64_t n = 0;
  for (const char c : id.substr(1)) {
    if (c < '0' || c > '9') return 0;
    n = n * 10 + std::uint64_t(c - '0');
  }
  if (n == 0) return 0;
  // Shard i mints ids i+1, i+1+S, i+1+2S, ... so the inverse is direct.
  return std::size_t((n - 1) % shards_.size());
}

stream::StreamSessionManager::FeedResult InferenceServer::FeedStream(
    const std::string& id, ts::SeriesView values) {
  return shards_[ShardOfStreamId(id)]->streams->Feed(id, values);
}

stream::StreamSessionManager::CloseResult InferenceServer::CloseStream(
    const std::string& id) {
  return shards_[ShardOfStreamId(id)]->streams->Close(id);
}

stream::StreamSessionManager& InferenceServer::streams(std::size_t shard) {
  return *shards_[shard % shards_.size()]->streams;
}

std::vector<std::string> InferenceServer::StreamIds() const {
  std::vector<std::string> ids;
  for (const auto& shard : shards_) {
    const std::vector<std::string> shard_ids = shard->streams->Ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end(),
            [](const std::string& a, const std::string& b) {
              // "s<N>" ids: numeric order, not lexicographic.
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return ids;
}

void InferenceServer::Shutdown() {
  // Sessions first (stops decisions flowing into stats mid-drain), then
  // queues; each shard's own pair, so nothing cross-shard is held.
  for (auto& shard : shards_) shard->streams->Shutdown();
  for (auto& shard : shards_) shard->queue->Shutdown();
}

std::string InferenceServer::MetricsText() const {
  // One snapshot per registry; the server registry also backs STATS, so
  // both views of a drained server render identical counts.
  const obs::RegistrySnapshot server_snap = stats_.registry().Snapshot();
  const obs::RegistrySnapshot process_snap = obs::DefaultRegistry().Snapshot();
  return obs::RenderPrometheus({&server_snap, &process_snap});
}

namespace {

using net::BinaryVerb;
using net::PayloadReader;
using net::PayloadWriter;
using net::WireStatus;
using OpenStatus = stream::StreamSessionManager::OpenStatus;
using FeedStatus = stream::StreamSessionManager::FeedStatus;

net::Frame ErrorReply(std::uint8_t verb, WireStatus status,
                      std::string_view detail) {
  net::Frame reply{verb, static_cast<std::uint8_t>(status), {}};
  PayloadWriter(&reply.payload).Str(detail);
  return reply;
}

/// CLASSIFY's reply: the label, or the status and the one detail both
/// codecs carry for the failure.
net::Frame ClassifyReply(std::uint8_t verb, const ClassifyResult& result,
                         const std::string& model) {
  switch (result.status) {
    case StatusCode::kOk:
      break;
    case StatusCode::kTimeout:
      return ErrorReply(verb, WireStatus::kTimeout, "deadline exceeded");
    case StatusCode::kOverloaded:
      return ErrorReply(verb, WireStatus::kOverloaded, "queue full");
    case StatusCode::kNotFound:
      return ErrorReply(verb, WireStatus::kNotFound,
                        "no model named '" + model + "'");
    case StatusCode::kShutdown:
      return ErrorReply(verb, WireStatus::kShutdown, "shutting down");
  }
  net::Frame ok{verb, static_cast<std::uint8_t>(WireStatus::kOk), {}};
  PayloadWriter(&ok.payload).I32(result.label);
  return ok;
}

WireStatus OpenStatusToWire(OpenStatus status) {
  switch (status) {
    case OpenStatus::kNotFound: return WireStatus::kNotFound;
    case OpenStatus::kOverloaded: return WireStatus::kOverloaded;
    case OpenStatus::kShutdown: return WireStatus::kShutdown;
    case OpenStatus::kOk:
    case OpenStatus::kInvalid: break;
  }
  return WireStatus::kBadRequest;
}

void PutNames(const std::vector<std::string>& names, PayloadWriter* out) {
  out->U32(static_cast<std::uint32_t>(names.size()));
  for (const auto& name : names) out->Str(name);
}

}  // namespace

void InferenceServer::Execute(std::size_t shard, const net::Frame& request,
                              Reply reply) {
  const std::uint8_t verb = request.verb;
  PayloadReader in(request.payload);
  net::Frame ok{verb, static_cast<std::uint8_t>(WireStatus::kOk), {}};
  PayloadWriter out(&ok.payload);
  auto fail = [&](WireStatus status, std::string_view detail) {
    reply(ErrorReply(verb, status, detail));
  };
  // A payload that does not decode: name the verb's request layout.
  auto bad_payload = [&](std::string_view layout) {
    fail(WireStatus::kBadRequest,
         std::string(net::VerbName(verb)) + " payload: " + std::string(layout));
  };
  if (net::VerbName(verb).empty()) {
    return fail(WireStatus::kBadRequest,
                "unknown verb " + std::to_string(int(verb)));
  }
  // Bulk bodies (STATS, METRICS, TRACE) ride as u32-length blobs:
  // multi-shard exposition and span dumps routinely exceed the u16 `str`
  // bound, which would silently truncate them.
  switch (static_cast<BinaryVerb>(verb)) {
    case BinaryVerb::kQuit:
      break;
    case BinaryVerb::kStats:
      out.Blob(stats_.Snapshot().ToJson());
      break;
    case BinaryVerb::kMetrics:
      out.Blob(MetricsText());
      break;
    case BinaryVerb::kTrace: {
      std::uint32_t n = 0;
      if (!in.U32(&n)) {
        return bad_payload("u32 span count");
      }
      n = n == 0 ? 32 : std::min<std::uint32_t>(n, 1024);
      out.Blob(obs::RenderSpansJson(obs::Tracer::Default().Recent(n)));
      break;
    }
    case BinaryVerb::kModels:
      PutNames(registry_.Names(), &out);
      break;
    case BinaryVerb::kStreams:
      PutNames(StreamIds(), &out);
      break;
    case BinaryVerb::kLoad: {
      std::string name;
      std::string path;
      if (!in.Str(&name) || !in.Str(&path)) {
        return bad_payload("str name, str path");
      }
      out.Str(name);
      try {
        out.U64(LoadModel(name, path));
      } catch (const std::exception& e) {
        return fail(WireStatus::kBadRequest, e.what());
      }
      break;
    }
    case BinaryVerb::kUnload: {
      std::string name;
      if (!in.Str(&name)) {
        return bad_payload("str name");
      }
      if (!UnloadModel(name)) {
        return fail(WireStatus::kNotFound, "no model named '" + name + "'");
      }
      out.Str(name);
      break;
    }
    case BinaryVerb::kClassify: {
      std::string model;
      std::uint32_t timeout_ms = 0;
      ts::Series values;
      if (!in.Str(&model) || !in.U32(&timeout_ms) ||
          !in.F64Array(&values) || values.empty()) {
        return bad_payload("str model, u32 timeout_ms, f64[] values");
      }
      const std::chrono::microseconds timeout =
          timeout_ms == 0 ? std::chrono::microseconds(options_.default_timeout)
                          : std::chrono::milliseconds(timeout_ms);
      // The one asynchronous verb: the reply is produced when the
      // micro-batch dispatches, on the shard's dispatcher thread.
      ClassifyWithCallback(
          model, std::move(values), timeout, shard,
          [reply = std::move(reply), verb, model](ClassifyResult result) {
            reply(ClassifyReply(verb, result, model));
          });
      return;
    }
    case BinaryVerb::kStreamOpen: {
      std::string model;
      std::uint32_t window = 0;
      std::uint32_t hop = 0;
      stream::StreamOptions opts;
      if (!in.Str(&model) || !in.U32(&window) || !in.U32(&hop) ||
          !in.F64(&opts.early_fraction) || !in.F64(&opts.early_margin) ||
          window == 0) {
        return bad_payload(
            "str model, u32 window, u32 hop, f64 early_fraction, "
            "f64 early_margin");
      }
      opts.window = window;
      opts.hop = hop;
      const auto result = OpenStream(model, opts, shard);
      if (!result.ok()) {
        return fail(OpenStatusToWire(result.status), result.error);
      }
      // Echo the normalized geometry (hop 0 means tumbling windows).
      out.Str(result.id);
      out.U32(window);
      out.U32(hop == 0 ? window : hop);
      break;
    }
    case BinaryVerb::kStreamFeed: {
      std::string id;
      std::vector<double> values;
      if (!in.Str(&id) || !in.F64Array(&values) || values.empty()) {
        return bad_payload("str id, f64[] values");
      }
      const auto result = FeedStream(id, values);
      if (result.status == FeedStatus::kNotFound) {
        return fail(WireStatus::kNotFound, "no stream named '" + id + "'");
      }
      if (result.status == FeedStatus::kShutdown) {
        return fail(WireStatus::kShutdown, "shutting down");
      }
      out.U32(static_cast<std::uint32_t>(result.accepted));
      out.U32(static_cast<std::uint32_t>(result.decisions.size()));
      for (const auto& d : result.decisions) {
        out.U64(d.window_index);
        out.I32(d.label);
        out.F64(d.margin);
        out.U8(d.early ? 1 : 0);
      }
      break;
    }
    case BinaryVerb::kStreamClose: {
      std::string id;
      if (!in.Str(&id)) {
        return bad_payload("str id");
      }
      const auto result = CloseStream(id);
      if (!result.found) {
        return fail(WireStatus::kNotFound, "no stream named '" + id + "'");
      }
      out.U64(result.summary.samples);
      out.U64(result.summary.windows_scored);
      out.U64(result.summary.decisions);
      out.U64(result.summary.early_decisions);
      break;
    }
  }
  reply(std::move(ok));
}

std::string InferenceServer::HandleLine(const std::string& line) {
  net::Frame request;
  std::string error;
  if (!TextToFrame(line, &request, &error)) return error;
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  Execute(0, request, [&request, promise](net::Frame reply) {
    promise->set_value(FrameToText(request, reply));
  });
  return future.get();
}

}  // namespace rpm::serve
