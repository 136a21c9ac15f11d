//===- serve/Server.h - The pruning-as-a-service daemon --------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WootzServer ties the serve pieces together into the daemon the CLI's
/// `serve` subcommand runs: an HttpServer dispatching through a Router to
///
///   GET    /                        API index
///   GET    /healthz                 liveness (reports draining)
///   POST   /v1/jobs                 submit a prune-exploration job
///   GET    /v1/jobs                 list jobs
///   GET    /v1/jobs/:id             job status + live counters
///   DELETE /v1/jobs/:id             cancel a job
///   GET    /v1/models               list servable models
///   POST   /v1/models               upload a model (Prototxt + weights)
///   DELETE /v1/models/:id           remove an uploaded model
///   POST   /v1/models/:id/predict   micro-batched inference
///   GET    /metrics                 Prometheus text exposition
///
/// plus the graceful-drain sequence (stop accepting -> finish in-flight
/// requests -> finish accepted jobs -> stop batchers) that the SIGTERM
/// handler triggers.
///
/// Every daemon runs on one ArtifactStore root: uploads, caches, job
/// journals and per-job artifacts all live under it, so a daemon
/// restarted on its root picks up where it left off, and several
/// daemons given the same root form one fleet.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_SERVER_H
#define WOOTZ_SERVE_SERVER_H

#include "src/serve/ArtifactStore.h"
#include "src/serve/Http.h"
#include "src/serve/JobManager.h"
#include "src/serve/ModelStore.h"
#include "src/serve/Router.h"

#include <atomic>
#include <memory>

namespace wootz {
namespace serve {

/// Everything the daemon needs to come up.
struct ServerOptions {
  HttpServerOptions Http;
  JobManagerOptions Jobs;
  BatcherOptions Batching;
  ModelStoreOptions Uploads;
  /// The state root (required; start() refuses an empty one). Any
  /// daemon pointed at the same root serves the same models and
  /// executes the same job queue.
  ArtifactStoreOptions Artifacts;
};

/// The assembled daemon.
class WootzServer {
public:
  explicit WootzServer(ServerOptions Options);
  ~WootzServer();

  WootzServer(const WootzServer &) = delete;
  WootzServer &operator=(const WootzServer &) = delete;

  /// Registers with the artifact root, restores persisted uploads, then
  /// binds and starts serving. Fails with a message on an empty root or
  /// invalid job options.
  Error start();

  /// The bound port (useful with Options.Http.Port = 0).
  int port() const;

  /// Graceful drain: stop accepting connections, finish every in-flight
  /// request, run every accepted job to a terminal state, then stop the
  /// prediction batchers. Idempotent; safe from a signal-watcher thread.
  void drain();

  /// The /metrics payload (also available without HTTP, for tools; needs
  /// a non-empty root, like jobs()).
  std::string metricsText() const;

  // Direct access for tests and for preloading models. jobs() needs a
  // non-empty root.
  JobManager &jobs() { return Jobs; }
  ModelRegistry &models() { return Registry; }
  ModelStore &uploads() { return Store; }
  ArtifactStore &artifacts() { return Artifacts; }
  RunLog &log() { return Log; }

private:
  void buildRoutes();
  HttpResponse handle(const HttpRequest &Request);

  HttpResponse indexResponse() const;
  HttpResponse submitJob(const HttpRequest &Request);
  HttpResponse uploadModel(const HttpRequest &Request);
  HttpResponse predict(const HttpRequest &Request, const std::string &Id);

  ServerOptions Options;
  RunLog Log; ///< Server-level counters (http.*, serve.*).
  LatencyHistogram RequestLatency; ///< Whole-request, any endpoint.
  LatencyHistogram PredictLatency; ///< predict() wait+forward time.
  // Destruction order matters: Http first (joins request threads, which
  // touch Jobs/Store/Registry), then Jobs (joins job workers, which
  // publish into Registry and read the Store), then Store, then
  // Registry, then Artifacts (whose destructor unregisters the process
  // from the shared tier). Members are declared in reverse.
  ArtifactStore Artifacts;
  ModelRegistry Registry;
  ModelStore Store;
  JobManager Jobs;
  Router Routes;
  std::unique_ptr<HttpServer> Http;
  std::atomic<bool> Drained{false};
  std::mutex DrainMutex; ///< Serializes concurrent drain() calls.
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_SERVER_H
