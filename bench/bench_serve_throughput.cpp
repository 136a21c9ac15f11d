//===- bench/bench_serve_throughput.cpp - serving-layer throughput ---------------===//
//
// Load-tests the wootz::serve daemon end to end over real sockets: one
// tiny pruning job produces a servable winner, then closed-loop clients
// hammer POST /v1/models/:id/predict while we sweep the client count
// and the micro-batcher's MaxBatch cap. Rows (req/s, p50/p99 latency)
// land in BENCH_serve.json for tracking scripts; the expected shape is
// that an unbatched server's latency grows linearly with concurrency
// while the batched one amortizes the forward pass once batches fill
// (paying a bounded companion wait when traffic is too thin to batch).
// A second sweep runs 1, 2 and 4 daemons over one artifact root
// (BENCH_shard.json).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "src/support/File.h"
#include "src/support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace wootz;
using namespace wootz::serve;

namespace {

/// One blocking HTTP/1.1 exchange against 127.0.0.1:Port (the serve
/// layer answers one request per connection, like its tests).
bool exchange(int Port, const std::string &Raw, std::string &Response) {
  const int Socket = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Socket < 0)
    return false;
  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_port = htons(static_cast<uint16_t>(Port));
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Socket, reinterpret_cast<sockaddr *>(&Address),
                sizeof(Address)) != 0) {
    ::close(Socket);
    return false;
  }
  size_t Sent = 0;
  while (Sent < Raw.size()) {
    const ssize_t N = ::send(Socket, Raw.data() + Sent, Raw.size() - Sent, 0);
    if (N <= 0) {
      ::close(Socket);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  Response.clear();
  char Buffer[4096];
  for (;;) {
    const ssize_t N = ::recv(Socket, Buffer, sizeof(Buffer), 0);
    if (N <= 0)
      break;
    Response.append(Buffer, static_cast<size_t>(N));
  }
  ::close(Socket);
  return !Response.empty();
}

std::string makeRequest(const std::string &Method, const std::string &Target,
                        const std::string &Body) {
  std::string Raw = Method + " " + Target + " HTTP/1.1\r\n";
  Raw += "Host: bench\r\nConnection: close\r\n";
  if (!Body.empty())
    Raw += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  Raw += "\r\n" + Body;
  return Raw;
}

double percentile(std::vector<double> Values, double Fraction) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t At = std::min(
      Values.size() - 1,
      static_cast<size_t>(Fraction * static_cast<double>(Values.size())));
  return Values[At];
}

/// The tiny job the bench trains once per server: two configurations,
/// per-module blocks (the sequitur identifier finds nothing reusable in
/// a two-config subspace), miniature step counts.
std::map<std::string, std::string> tinyJobBody(const ModelSpec &Spec,
                                               const std::string &Model) {
  PruneConfig A(Spec.moduleCount(), 0.0f);
  A[0] = 0.5f;
  PruneConfig B(Spec.moduleCount(), 0.0f);
  B[0] = 0.3f;
  TrainMeta Meta;
  Meta.FullModelSteps = 60;
  Meta.PretrainSteps = 12;
  Meta.FinetuneSteps = 8;
  Meta.EvalEvery = 8;
  Meta.BatchSize = 8;
  return {{"model", Model},
          {"subspace", printSubspaceSpec({A, B})},
          {"meta", printTrainMeta(Meta)},
          {"objective", "min ModelSize\nconstraint Accuracy >= 0.0\n"},
          {"dataset_scale", "0.1"},
          {"identifier", "false"},
          {"workers", "2"}};
}

struct LoadResult {
  double Seconds = 0.0;
  double P50 = 0.0;
  double P99 = 0.0;
  int Ok = 0;
  int Errors = 0;

  double requestsPerSecond() const {
    return Seconds > 0.0 ? Ok / Seconds : 0.0;
  }
};

/// Closed-loop load: each client thread sends RequestsPerClient requests
/// back to back and records per-request wall latency. With several
/// ports the clients spread round-robin over them — the multi-daemon
/// sweep's stand-in for a front-end load balancer.
LoadResult runLoad(const std::vector<int> &Ports, const std::string &Raw,
                   int Clients, int RequestsPerClient) {
  std::vector<std::vector<double>> Latencies(Clients);
  std::atomic<int> Ok{0};
  std::atomic<int> Errors{0};
  Stopwatch Wall;
  std::vector<std::thread> Threads;
  for (int Client = 0; Client < Clients; ++Client)
    Threads.emplace_back([&, Client] {
      const int Port = Ports[Client % Ports.size()];
      Latencies[Client].reserve(RequestsPerClient);
      for (int I = 0; I < RequestsPerClient; ++I) {
        Stopwatch One;
        std::string Response;
        const bool Sent = exchange(Port, Raw, Response);
        if (Sent && Response.find(" 200 ") != std::string::npos) {
          Latencies[Client].push_back(One.seconds());
          ++Ok;
        } else {
          ++Errors;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  LoadResult Out;
  Out.Seconds = Wall.seconds();
  Out.Ok = Ok.load();
  Out.Errors = Errors.load();
  std::vector<double> All;
  for (const std::vector<double> &PerClient : Latencies)
    All.insert(All.end(), PerClient.begin(), PerClient.end());
  Out.P50 = percentile(All, 0.50);
  Out.P99 = percentile(All, 0.99);
  return Out;
}

} // namespace

int main() {
  std::printf("=== wootz::serve throughput: clients x batch cap ===\n\n");

  const std::string ModelText =
      standardModelPrototxt(StandardModel::ResNetA, 4);
  Result<ModelSpec> Spec = parseModelSpec(ModelText);
  if (!Spec) {
    std::fprintf(stderr, "bench model error: %s\n", Spec.message().c_str());
    return 1;
  }
  std::string Input;
  const int InputCount =
      Spec->InputChannels * Spec->InputHeight * Spec->InputWidth;
  for (int I = 0; I < InputCount; ++I)
    Input += (I ? " " : "") + formatDouble(0.01 * (I % 11), 3);
  JsonObject PredictBody;
  PredictBody.field("input", Input);
  const std::string PredictJson = PredictBody.str();

  std::string JsonRows;
  auto pushRow = [&JsonRows](const JsonObject &Row) {
    if (!JsonRows.empty())
      JsonRows += ",\n  ";
    JsonRows += Row.str();
  };

  Table Out({"batch cap", "clients", "requests", "req/s", "p50 ms",
             "p99 ms", "errors"});
  const int RequestsPerClient = 50;
  for (int MaxBatch : {1, 8}) {
    // One server per batch cap: the micro-batcher is configured at
    // construction. State lives under the shared bench cache dir so a
    // rerun reuses the trained teacher and blocks; earlier runs' job
    // journals and artifacts go, so the drain below waits on this job
    // alone.
    ServerOptions Options;
    Options.Http.Workers = 8;
    Options.Batching.MaxBatch = MaxBatch;
    Options.Artifacts.Root = wootz::bench::cacheDir() + "/serve_bench";
    std::error_code FsError;
    std::filesystem::remove_all(Options.Artifacts.Root + "/jobs", FsError);
    std::filesystem::remove_all(Options.Artifacts.Root + "/artifacts",
                                FsError);
    WootzServer Server(Options);
    if (Error Started = Server.start()) {
      std::fprintf(stderr, "bench server error: %s\n",
                   Started.message().c_str());
      return 1;
    }
    const int Port = Server.port();

    JsonObject SubmitBody;
    for (const auto &[Key, Value] : tinyJobBody(*Spec, ModelText))
      SubmitBody.field(Key, Value);
    std::string Accepted;
    if (!exchange(Port, makeRequest("POST", "/v1/jobs", SubmitBody.str()),
                  Accepted) ||
        Accepted.find(" 202 ") == std::string::npos) {
      std::fprintf(stderr, "bench job submit failed:\n%s\n",
                   Accepted.c_str());
      return 1;
    }
    const size_t IdAt = Accepted.find("\"id\":\"");
    const std::string JobId = Accepted.substr(
        IdAt + 6, Accepted.find('"', IdAt + 6) - (IdAt + 6));
    Server.jobs().drain(); // Waits for the job; new jobs get 503, but
                           // the predict path stays open.
    if (Server.models().count() == 0) {
      std::fprintf(stderr, "bench job produced no servable model\n");
      return 1;
    }

    const std::string PredictRaw = makeRequest(
        "POST", "/v1/models/" + JobId + "/predict", PredictJson);
    for (int Clients : {1, 2, 4, 8}) {
      const LoadResult Load =
          runLoad({Port}, PredictRaw, Clients, RequestsPerClient);
      Out.addRow({std::to_string(MaxBatch), std::to_string(Clients),
                  std::to_string(Load.Ok),
                  formatDouble(Load.requestsPerSecond(), 1),
                  formatDouble(Load.P50 * 1e3, 3),
                  formatDouble(Load.P99 * 1e3, 3),
                  std::to_string(Load.Errors)});
      JsonObject Row;
      Row.field("path", "predict")
          .field("max_batch", MaxBatch)
          .field("clients", Clients)
          .field("requests", Load.Ok)
          .field("errors", Load.Errors)
          .field("requests_per_second", Load.requestsPerSecond(), 1)
          .field("p50_seconds", Load.P50, 6)
          .field("p99_seconds", Load.P99, 6);
      pushRow(Row);
    }
    Server.drain();
  }

  std::printf("%s", Out.render().c_str());
  std::printf("\nexpected shape: with the cap at 1 every request pays its "
              "own forward pass, so\nlatency climbs roughly linearly with "
              "the client count; with the cap at 8 a lone\nclient pays the "
              "bounded companion wait (MaxWaitMicros), but once enough "
              "clients\narrive batches fill early and req/s scales past "
              "the unbatched ceiling.\n");

  const std::string JsonPath = "BENCH_serve.json";
  Error WriteErr = writeFile(JsonPath, "[\n  " + JsonRows + "\n]\n");
  if (WriteErr)
    std::printf("warning: could not write %s: %s\n", JsonPath.c_str(),
                WriteErr.message().c_str());
  else
    std::printf("wrote %s\n", JsonPath.c_str());

  // --- multi-daemon sweep: N in-process daemons over one artifact root.
  //
  // Jobs: four identical explorations submitted round-robin. The fleet
  // shares one block cache, one teacher cache, and one durable queue,
  // so however the jobs land, blocks train once and every later job
  // (or daemon) fetches them. Predictions: a fixed client pool spread
  // round-robin over the daemons against a model uploaded through
  // daemon 1 — every other daemon restores it lazily from the shared
  // models tier.
  std::printf("\n=== multi-daemon: one artifact root, jobs + predictions "
              "===\n\n");
  std::string ShardRows;
  auto pushShardRow = [&ShardRows](const JsonObject &Row) {
    if (!ShardRows.empty())
      ShardRows += ",\n  ";
    ShardRows += Row.str();
  };
  Table Shard({"daemons", "jobs", "jobs wall s", "cache hit", "cache miss",
               "req/s", "p50 ms", "p99 ms", "errors"});
  const std::string Root = wootz::bench::cacheDir() + "/serve_shard_root";
  const int JobCount = 4;
  const int PredictClients = 8;
  for (int Daemons : {1, 2, 4}) {
    // Cold fleet per cell: comparing daemon counts only makes sense
    // when each starts from an empty shared tier.
    std::error_code FsError;
    std::filesystem::remove_all(Root, FsError);

    std::vector<std::unique_ptr<WootzServer>> Fleet;
    std::vector<int> Ports;
    for (int I = 0; I < Daemons; ++I) {
      ServerOptions Options;
      Options.Http.Workers = 4;
      Options.Artifacts.Root = Root;
      Options.Artifacts.ProcessName = "shard-" + std::to_string(I + 1) +
                                      "-of-" + std::to_string(Daemons);
      Options.Jobs.PollSeconds = 0.05;
      Fleet.push_back(std::make_unique<WootzServer>(Options));
      if (Error Started = Fleet.back()->start()) {
        std::fprintf(stderr, "bench shard daemon error: %s\n",
                     Started.message().c_str());
        return 1;
      }
      Ports.push_back(Fleet.back()->port());
    }

    JsonObject Upload;
    Upload.field("id", "bench-model").field("model", ModelText);
    std::string Uploaded;
    if (!exchange(Ports[0],
                  makeRequest("POST", "/v1/models", Upload.str()),
                  Uploaded) ||
        Uploaded.find(" 201 ") == std::string::npos) {
      std::fprintf(stderr, "bench shard upload failed:\n%s\n",
                   Uploaded.c_str());
      return 1;
    }

    JsonObject SubmitBody;
    for (const auto &[Key, Value] : tinyJobBody(*Spec, "bench-model"))
      SubmitBody.field(Key, Value);
    Stopwatch JobsWall;
    std::vector<std::string> JobIds;
    for (int J = 0; J < JobCount; ++J) {
      std::string Accepted;
      if (!exchange(Ports[J % Daemons],
                    makeRequest("POST", "/v1/jobs", SubmitBody.str()),
                    Accepted) ||
          Accepted.find(" 202 ") == std::string::npos) {
        std::fprintf(stderr, "bench shard submit failed:\n%s\n",
                     Accepted.c_str());
        return 1;
      }
      const size_t IdAt = Accepted.find("\"id\":\"");
      JobIds.push_back(Accepted.substr(
          IdAt + 6, Accepted.find('"', IdAt + 6) - (IdAt + 6)));
    }
    // Any daemon can observe any durable job; poll through the first.
    for (const std::string &Id : JobIds)
      for (;;) {
        Result<std::string> Status = Fleet[0]->jobs().statusJson(Id);
        if (!Status) {
          std::fprintf(stderr, "bench shard status error: %s\n",
                       Status.message().c_str());
          return 1;
        }
        if (Status->find("\"state\":\"done\"") != std::string::npos)
          break;
        if (Status->find("\"state\":\"failed\"") != std::string::npos ||
            Status->find("\"state\":\"cancelled\"") != std::string::npos) {
          std::fprintf(stderr, "bench shard job %s did not finish:\n%s\n",
                       Id.c_str(), Status->c_str());
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    const double JobSeconds = JobsWall.seconds();

    // Per-job counters live with whichever daemon executed the job.
    int64_t CacheHits = 0;
    int64_t CacheMisses = 0;
    for (const std::string &Id : JobIds)
      for (const std::unique_ptr<WootzServer> &Daemon : Fleet) {
        const std::map<std::string, int64_t> Counters =
            Daemon->jobs().executor().countersFor(Id);
        const auto Hit = Counters.find("cache.hit");
        if (Hit != Counters.end())
          CacheHits += Hit->second;
        const auto Miss = Counters.find("cache.miss");
        if (Miss != Counters.end())
          CacheMisses += Miss->second;
      }

    const std::string PredictRaw = makeRequest(
        "POST", "/v1/models/bench-model/predict", PredictJson);
    const LoadResult Load =
        runLoad(Ports, PredictRaw, PredictClients, RequestsPerClient);

    Shard.addRow({std::to_string(Daemons), std::to_string(JobCount),
                  formatDouble(JobSeconds, 2), std::to_string(CacheHits),
                  std::to_string(CacheMisses),
                  formatDouble(Load.requestsPerSecond(), 1),
                  formatDouble(Load.P50 * 1e3, 3),
                  formatDouble(Load.P99 * 1e3, 3),
                  std::to_string(Load.Errors)});
    JsonObject Row;
    Row.field("path", "shard")
        .field("daemons", Daemons)
        .field("jobs", JobCount)
        .field("job_wall_seconds", JobSeconds, 3)
        .field("cache_hits", static_cast<int>(CacheHits))
        .field("cache_misses", static_cast<int>(CacheMisses))
        .field("clients", PredictClients)
        .field("requests", Load.Ok)
        .field("errors", Load.Errors)
        .field("requests_per_second", Load.requestsPerSecond(), 1)
        .field("p50_seconds", Load.P50, 6)
        .field("p99_seconds", Load.P99, 6);
    pushShardRow(Row);

    for (const std::unique_ptr<WootzServer> &Daemon : Fleet)
      Daemon->drain();
  }

  std::printf("%s", Shard.render().c_str());
  std::printf("\nexpected shape: identical jobs share one block cache, so "
              "the first execution\npays the training and the rest fetch "
              "(hits grow with the job count); spreading\njobs over more "
              "daemons overlaps the cold work, and predict req/s scales "
              "with the\nfleet because each daemon restores the uploaded "
              "model once and serves locally.\n");

  const std::string ShardPath = "BENCH_shard.json";
  Error ShardErr = writeFile(ShardPath, "[\n  " + ShardRows + "\n]\n");
  if (ShardErr)
    std::printf("warning: could not write %s: %s\n", ShardPath.c_str(),
                ShardErr.message().c_str());
  else
    std::printf("wrote %s\n", ShardPath.c_str());
  return 0;
}
