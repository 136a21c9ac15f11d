//===- serve/Server.cpp ----------------------------------------------------===//

#include "src/serve/Server.h"

#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <cctype>
#include <chrono>
#include <cstring>

using namespace wootz;
using namespace wootz::serve;

WootzServer::WootzServer(ServerOptions Options)
    : Options(Options), Artifacts(Options.Artifacts, &Log),
      Registry(Options.Batching, &Log, &PredictLatency),
      Store(Artifacts.modelsDir(), Options.Uploads, &Registry, &Log),
      Jobs(Options.Jobs, Artifacts, &Registry, &Log, &Store) {
  buildRoutes();
  Http = std::make_unique<HttpServer>(
      Options.Http,
      [this](const HttpRequest &Request) { return handle(Request); },
      &Log);
}

WootzServer::~WootzServer() { drain(); }

Error WootzServer::start() {
  // Option validation surfaces here rather than aborting the ctor, so a
  // misconfigured daemon fails its launch with a message, not a crash.
  if (Error E = Artifacts.rootError())
    return E;
  if (!Jobs.optionsError().empty())
    return Error::failure(Jobs.optionsError());
  // Register with the shared tier before restoring models, so placement
  // (which daemons eagerly restore which models) sees this process.
  (void)static_cast<bool>(Artifacts.heartbeat());
  // Re-register persisted uploads before the listener exists: a client
  // that connects never sees a partially restored model list.
  Store.loadFromDisk(&Artifacts);
  return Http->start();
}

int WootzServer::port() const { return Http->port(); }

void WootzServer::drain() {
  std::lock_guard<std::mutex> Lock(DrainMutex);
  if (Drained.load())
    return;
  // Sequence: no new connections; let in-flight requests finish (after
  // which nothing can submit jobs or call predict); run accepted jobs to
  // completion; only then stop the batchers.
  Http->beginDrain();
  Http->finishDrain();
  Jobs.drain();
  Registry.stopAll();
  Drained.store(true);
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

void WootzServer::buildRoutes() {
  Routes.add("GET", "/",
             [this](const HttpRequest &, const std::vector<std::string> &) {
               return indexResponse();
             });
  Routes.add("GET", "/healthz",
             [this](const HttpRequest &, const std::vector<std::string> &) {
               HttpResponse Out;
               JsonObject Body;
               Body.field("status",
                          Http->draining() ? "draining" : "ok")
                   .field("models", Registry.count())
                   .field("jobs_running", Jobs.runningCount());
               Out.Body = Body.str() + "\n";
               return Out;
             });
  Routes.add("POST", "/v1/jobs",
             [this](const HttpRequest &Request,
                    const std::vector<std::string> &) {
               return submitJob(Request);
             });
  Routes.add("GET", "/v1/jobs",
             [this](const HttpRequest &, const std::vector<std::string> &) {
               HttpResponse Out;
               Out.Body = Jobs.listJson();
               return Out;
             });
  Routes.add("GET", "/v1/jobs/:id",
             [this](const HttpRequest &,
                    const std::vector<std::string> &Params) {
               Result<std::string> Status = Jobs.statusJson(Params[0]);
               if (!Status)
                 return errorResponse(404, Status.message());
               HttpResponse Out;
               Out.Body = Status.take();
               return Out;
             });
  Routes.add("DELETE", "/v1/jobs/:id",
             [this](const HttpRequest &,
                    const std::vector<std::string> &Params) {
               Result<std::string> State = Jobs.cancel(Params[0]);
               if (!State)
                 return errorResponse(404, State.message());
               HttpResponse Out;
               JsonObject Body;
               Body.field("id", Params[0]).field("state", State.take());
               Out.Body = Body.str() + "\n";
               return Out;
             });
  Routes.add("GET", "/v1/models",
             [this](const HttpRequest &, const std::vector<std::string> &) {
               std::string Items;
               for (const std::string &Id : Registry.ids()) {
                 ServableModel *Model = Registry.find(Id);
                 if (!Model)
                   continue;
                 JsonObject Item;
                 Item.field("id", Model->Id)
                     .field("channels", Model->Channels)
                     .field("height", Model->Height)
                     .field("width", Model->Width)
                     .field("classes", Model->Classes)
                     .field("origin", Model->Origin);
                 if (!Items.empty())
                   Items += ",";
                 Items += Item.str();
               }
               HttpResponse Out;
               JsonObject Body;
               Body.fieldRaw("models", "[" + Items + "]");
               Out.Body = Body.str() + "\n";
               return Out;
             });
  Routes.add("POST", "/v1/models",
             [this](const HttpRequest &Request,
                    const std::vector<std::string> &) {
               return uploadModel(Request);
             });
  Routes.add("DELETE", "/v1/models/:id",
             [this](const HttpRequest &,
                    const std::vector<std::string> &Params) {
               if (Error E = Store.remove(Params[0]))
                 return errorResponse(404, E.message());
               HttpResponse Out;
               JsonObject Body;
               Body.field("id", Params[0]).field("state", "deleted");
               Out.Body = Body.str() + "\n";
               return Out;
             });
  Routes.add("POST", "/v1/models/:id/predict",
             [this](const HttpRequest &Request,
                    const std::vector<std::string> &Params) {
               return predict(Request, Params[0]);
             });
  Routes.add("GET", "/metrics",
             [this](const HttpRequest &, const std::vector<std::string> &) {
               HttpResponse Out;
               Out.ContentType = "text/plain; version=0.0.4";
               Out.Body = metricsText();
               return Out;
             });
}

HttpResponse WootzServer::handle(const HttpRequest &Request) {
  const auto Start = std::chrono::steady_clock::now();
  HttpResponse Out = Routes.dispatch(Request);
  RequestLatency.record(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count());
  Log.bump("http.responses." + std::to_string(Out.Status / 100) + "xx");
  return Out;
}

HttpResponse WootzServer::indexResponse() const {
  JsonObject Body;
  Body.field("service", "wootz-serve")
      .fieldRaw("endpoints",
                "[\"GET /healthz\",\"POST /v1/jobs\",\"GET /v1/jobs\","
                "\"GET /v1/jobs/:id\",\"DELETE /v1/jobs/:id\","
                "\"GET /v1/models\",\"POST /v1/models\","
                "\"DELETE /v1/models/:id\","
                "\"POST /v1/models/:id/predict\",\"GET /metrics\"]");
  HttpResponse Out;
  Out.Body = Body.str() + "\n";
  return Out;
}

HttpResponse WootzServer::submitJob(const HttpRequest &Request) {
  Result<std::map<std::string, std::string>> Body =
      parseFlatJsonObject(Request.Body);
  if (!Body)
    return errorResponse(400, "request body: " + Body.message());
  const SubmitOutcome Outcome = Jobs.submit(*Body);
  if (Outcome.Status != 202) {
    HttpResponse Out = errorResponse(Outcome.Status, Outcome.Error);
    if (Outcome.Status == 429 || Outcome.Status == 503)
      Out.ExtraHeaders.emplace_back("Retry-After", "5");
    return Out;
  }
  HttpResponse Out;
  Out.Status = 202;
  JsonObject Accepted;
  Accepted.field("id", Outcome.Id)
      .field("status_url", "/v1/jobs/" + Outcome.Id);
  Out.Body = Accepted.str() + "\n";
  return Out;
}

HttpResponse WootzServer::uploadModel(const HttpRequest &Request) {
  Result<std::map<std::string, std::string>> Body =
      parseFlatJsonObject(Request.Body);
  if (!Body)
    return errorResponse(400, "request body: " + Body.message());
  const UploadOutcome Outcome = Store.upload(*Body);
  if (Outcome.Status != 201) {
    HttpResponse Out = errorResponse(Outcome.Status, Outcome.Error);
    if (Outcome.Status == 429)
      Out.ExtraHeaders.emplace_back("Retry-After", "5");
    return Out;
  }
  HttpResponse Out;
  Out.Status = 201;
  JsonObject Created;
  Created.field("id", Outcome.Id)
      .field("predict_url", "/v1/models/" + Outcome.Id + "/predict");
  Out.Body = Created.str() + "\n";
  return Out;
}

HttpResponse WootzServer::predict(const HttpRequest &Request,
                                  const std::string &Id) {
  ServableModel *Model = Registry.find(Id);
  // Shared-tier lazy restore: a peer daemon may have taken the upload,
  // or placement may have deferred this model at startup. Either way the
  // persisted copy makes it servable here on first request.
  if (!Model && Store.tryRestore(Id))
    Model = Registry.find(Id);
  if (!Model)
    return errorResponse(404, "no such model '" + Id + "'");

  Result<std::map<std::string, std::string>> Body =
      parseFlatJsonObject(Request.Body);
  if (!Body)
    return errorResponse(400, "request body: " + Body.message());
  auto It = Body->find("input");
  if (It == Body->end())
    return errorResponse(400, "missing required field 'input' "
                              "(whitespace-separated CHW floats)");

  const size_t Expected = static_cast<size_t>(Model->Channels) *
                          Model->Height * Model->Width;
  std::vector<float> Values;
  Values.reserve(Expected);
  std::string_view Text = It->second;
  while (true) {
    Text = trim(Text);
    if (Text.empty())
      break;
    size_t End = 0;
    while (End < Text.size() && !std::isspace(
                                    static_cast<unsigned char>(Text[End])))
      ++End;
    Result<double> Value = parseDouble(Text.substr(0, End));
    if (!Value)
      return errorResponse(400, "input value " +
                                    std::to_string(Values.size()) + ": " +
                                    Value.message());
    Values.push_back(static_cast<float>(*Value));
    if (Values.size() > Expected)
      return errorResponse(400, "input carries more than the expected " +
                                    std::to_string(Expected) + " values");
    Text = Text.substr(End);
  }
  if (Values.size() != Expected)
    return errorResponse(
        400, "input carries " + std::to_string(Values.size()) +
                 " values but the model expects " +
                 std::to_string(Expected) + " (" +
                 std::to_string(Model->Channels) + "x" +
                 std::to_string(Model->Height) + "x" +
                 std::to_string(Model->Width) + ")");

  Tensor Sample(
      Shape{1, Model->Channels, Model->Height, Model->Width});
  std::memcpy(Sample.data(), Values.data(),
              Values.size() * sizeof(float));

  Result<Prediction> Predicted = Model->Engine->predict(Sample);
  if (!Predicted) {
    if (Predicted.message() == "model overloaded")
      return errorResponse(429, Predicted.message());
    if (Predicted.message() == "model is draining")
      return errorResponse(503, Predicted.message());
    return errorResponse(500, Predicted.message());
  }

  std::string Logits;
  for (size_t I = 0; I < Predicted->Logits.size(); ++I) {
    if (!Logits.empty())
      Logits += ",";
    Logits += formatDouble(Predicted->Logits.data()[I], 6);
  }
  JsonObject Out;
  Out.field("model", Id)
      .field("argmax", Predicted->ArgMax)
      .field("batch_size", Predicted->BatchSize)
      .fieldRaw("logits", "[" + Logits + "]");
  HttpResponse Response;
  Response.Body = Out.str() + "\n";
  return Response;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

std::string WootzServer::metricsText() const {
  std::string Out;

  // Counters: the server's own (http.*, serve.*) and the aggregate over
  // every job's pipeline log (cache.*, tasks_*, ...).
  bool CountersType = false;
  Out += prometheusCounterMap("wootz_counter", "server", Log.counters(),
                              CountersType);
  Out += prometheusCounterMap("wootz_counter", "jobs", Jobs.jobCounters(),
                              CountersType);
  // Context-pool traffic (serve.contexts.pooled/created/reused/trimmed).
  Out += prometheusCounterMap("wootz_counter", "contexts",
                              Registry.contextCounters(), CountersType);

  // Gauges.
  bool GaugeType = false;
  Out += prometheusSample("wootz_http_queue_depth", "",
                          static_cast<double>(Http->queueDepth()), "gauge",
                          GaugeType);
  GaugeType = false;
  Out += prometheusSample("wootz_jobs_queued", "",
                          static_cast<double>(Jobs.queuedCount()), "gauge",
                          GaugeType);
  GaugeType = false;
  Out += prometheusSample("wootz_jobs_running", "",
                          static_cast<double>(Jobs.runningCount()),
                          "gauge", GaugeType);
  GaugeType = false;
  Out += prometheusSample("wootz_models", "",
                          static_cast<double>(Registry.count()), "gauge",
                          GaugeType);
  GaugeType = false;
  for (const auto &[State, Count] : Jobs.stateCounts())
    Out += prometheusSample("wootz_jobs_state",
                            "state=\"" + prometheusEscapeLabel(State) +
                                "\"",
                            static_cast<double>(Count), "gauge",
                            GaugeType);
  // Shared artifact tier: how much each directory holds and how many
  // daemons are currently registered against the root.
  bool EntriesType = false, BytesType = false;
  for (const auto &[Tier, Dir] :
       {std::pair<const char *, std::string>{"block_cache",
                                             Artifacts.blockCacheDir()},
        std::pair<const char *, std::string>{"cache",
                                             Artifacts.modelCacheDir()},
        std::pair<const char *, std::string>{"models",
                                             Artifacts.modelsDir()}}) {
    const ArtifactUsage Usage = ArtifactStore::usage(Dir);
    const std::string Labels = "tier=\"" + std::string(Tier) + "\"";
    Out += prometheusSample("wootz_artifact_entries", Labels,
                            static_cast<double>(Usage.Entries), "gauge",
                            EntriesType);
    Out += prometheusSample("wootz_artifact_bytes", Labels,
                            static_cast<double>(Usage.Bytes), "gauge",
                            BytesType);
  }
  GaugeType = false;
  Out += prometheusSample(
      "wootz_artifact_processes", "",
      static_cast<double>(Artifacts.activeProcesses().size()), "gauge",
      GaugeType);

  // Latency histograms plus interpolated p50/p99 convenience gauges.
  Out += RequestLatency.prometheus("wootz_request_latency_seconds", "");
  Out += PredictLatency.prometheus("wootz_predict_latency_seconds",
                                   "path=\"predict\"");
  bool QuantileType = false;
  for (const auto &[Name, Histogram] :
       {std::pair<const char *, const LatencyHistogram *>{
            "request", &RequestLatency},
        std::pair<const char *, const LatencyHistogram *>{
            "predict", &PredictLatency}}) {
    for (double Q : {0.5, 0.99})
      Out += prometheusSample(
          "wootz_latency_quantile_seconds",
          "path=\"" + std::string(Name) + "\",q=\"" +
              formatDouble(Q, 2) + "\"",
          Histogram->quantile(Q), "gauge", QuantileType);
  }
  return Out;
}
