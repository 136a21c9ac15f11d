//===- serve/Batcher.h - Dynamic micro-batched inference -------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference path of the serve daemon. Every servable model is
/// frozen into a static ExecPlan (plan/Plan.h) when it is registered and
/// owns one Batcher: a small pool of worker threads that share the
/// immutable plan, each batch running through a PlanContext borrowed
/// from a ContextPool, so one hot model scales across workers instead of
/// being pinned to a single thread; each worker runs the plan's kernels
/// serially on its own thread. Workers coalesce concurrent predict
/// requests into one NCHW batch, so one plan run serves several
/// requests: when the first sample arrives a worker waits up to
/// MaxWaitMicros for companions
/// (bounded wait), cuts the batch at MaxBatch, runs the plan once, and
/// fans the logit rows back out to the waiting request threads.
///
/// Callers block in predict() on a condition variable; a bounded pending
/// queue turns overload into an immediate "overloaded" error (the
/// HTTP layer maps it to 429) instead of unbounded memory growth.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_BATCHER_H
#define WOOTZ_SERVE_BATCHER_H

#include "src/plan/Plan.h"
#include "src/runtime/RunLog.h"
#include "src/serve/ContextPool.h"
#include "src/serve/Metrics.h"
#include "src/support/Error.h"
#include "src/train/Assembly.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wootz {
namespace serve {

/// Batching policy knobs.
struct BatcherOptions {
  /// Largest batch a single forward pass may carry.
  int MaxBatch = 8;
  /// How long the first request of a batch waits for companions.
  int MaxWaitMicros = 2000;
  /// Pending-request cap; beyond it predict() fails fast ("overloaded").
  size_t MaxQueuedRequests = 64;
  /// Worker threads per model. Each batch runs the shared plan through
  /// a PlanContext borrowed from a ContextPool, so concurrent batches
  /// overlap on one model.
  int Workers = 2;
  /// Trim policy of the ContextPool that lends every batch its context.
  ContextPoolOptions Pool;
};

/// What one prediction returns.
struct Prediction {
  Tensor Logits; ///< Rank-1, one value per class.
  int ArgMax = 0;
  /// Size of the batch this request rode in (the occupancy signal).
  int BatchSize = 1;
};

/// One model's batching inference engine.
class Batcher {
public:
  /// Takes shared ownership of the frozen \p Plan; \p Log (optional)
  /// receives `serve.predict.*` counters, \p Latency (optional)
  /// per-request forward latencies. \p Pool (optional, e.g. the
  /// registry's) lends each batch its execution context; without it the
  /// batcher owns a pool built from Options.Pool.
  Batcher(std::shared_ptr<const ExecPlan> Plan, BatcherOptions Options,
          RunLog *Log, LatencyHistogram *Latency,
          ContextPool *Pool = nullptr);
  ~Batcher();

  Batcher(const Batcher &) = delete;
  Batcher &operator=(const Batcher &) = delete;

  /// Runs \p Sample (shape [1, C, H, W]) through the model, riding a
  /// shared batch when traffic allows. Blocks until the result is ready;
  /// fails fast when the queue is full or the batcher is stopping.
  Result<Prediction> predict(const Tensor &Sample);

  /// Rejects new work and fails everything still queued ("draining"),
  /// then joins the worker threads. Idempotent.
  void stop();

private:
  struct Pending {
    const Tensor *Sample = nullptr;
    Tensor Logits;
    int BatchSize = 0;
    std::string Error; ///< Non-empty on failure.
    bool Done = false;
  };

  void loop();
  /// Runs the requests of \p Batch through \p Ctx as one NCHW batch and
  /// writes each request's logits row (or its error) back.
  void runBatch(PlanContext &Ctx, std::vector<Pending *> &Batch);

  std::shared_ptr<const ExecPlan> Plan;
  BatcherOptions Options;
  RunLog *Log = nullptr;
  LatencyHistogram *Latency = nullptr;
  /// Set when no pool was passed in. Declared after Plan so it is
  /// destroyed (after stop() joined the workers) before the plan.
  std::unique_ptr<ContextPool> OwnedPool;
  ContextPool *Pool = nullptr;

  std::mutex Mutex;
  std::condition_variable WorkReady; ///< Signals the worker threads.
  std::condition_variable BatchDone; ///< Broadcast to waiting callers.
  std::deque<Pending *> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

/// A registered model: its frozen plan, expected input shape, and
/// batcher.
struct ServableModel {
  std::string Id;
  int Channels = 0;
  int Height = 0;
  int Width = 0;
  int Classes = 0;
  /// Provenance note surfaced in the model listing ("job job-3 winner",
  /// "preloaded full model", ...).
  std::string Origin;
  /// The frozen static plan every prediction runs. It owns copies of
  /// the weights, so the source network is not kept.
  std::shared_ptr<const ExecPlan> Plan;
  std::unique_ptr<Batcher> Engine;
};

/// Thread-safe id -> ServableModel table. Removed models are retired,
/// not destroyed — their engines stop (in-flight predicts fail cleanly)
/// but the objects live until the registry does, so find() results held
/// by concurrent request handlers stay valid until stopAll().
class ModelRegistry {
public:
  explicit ModelRegistry(BatcherOptions Batching, RunLog *Log,
                         LatencyHistogram *Latency)
      : Batching(Batching), Log(Log), Latency(Latency),
        Contexts(Batching.Pool) {}

  /// Engines stop (joining the worker threads that use the context
  /// pool) before the pool's contexts are torn down, which in turn
  /// happens while the model plans are still alive.
  ~ModelRegistry() {
    stopAll();
    Contexts.clear();
  }

  /// Freezes \p Network into a plan for the given input geometry and
  /// registers it under \p Id. The network itself is not kept. Fails if
  /// the plan does not compile or the id is taken.
  Error add(const std::string &Id,
            std::shared_ptr<AssembledNetwork> Network, int Channels,
            int Height, int Width, int Classes, std::string Origin);

  /// Registers an already frozen \p Plan under \p Id; its input
  /// extents are the model's. Fails if the id is taken.
  Error add(const std::string &Id, std::shared_ptr<const ExecPlan> Plan,
            int Classes, std::string Origin);

  /// Unregisters \p Id: its engine stops (queued predicts fail with
  /// "model is draining") and the id becomes free again. The
  /// ServableModel object is retired rather than destroyed; see the
  /// class comment.
  Error remove(const std::string &Id);

  /// Looks up a model; nullptr when absent.
  ServableModel *find(const std::string &Id);

  /// Registered ids, insertion-ordered.
  std::vector<std::string> ids() const;

  size_t count() const;

  /// Stops every batcher (drain step). Idempotent.
  void stopAll();

  /// serve.contexts.* counters of the shared pool (the /metrics feed).
  std::map<std::string, int64_t> contextCounters() const {
    return Contexts.counters();
  }

private:
  BatcherOptions Batching;
  RunLog *Log = nullptr;
  LatencyHistogram *Latency = nullptr;
  /// Declared before the model tables: destroyed after them in reverse
  /// order, but the destructor clears it explicitly first — see above.
  ContextPool Contexts;
  mutable std::mutex Mutex;
  std::vector<std::string> Order;
  std::map<std::string, std::unique_ptr<ServableModel>> Models;
  /// Removed models, kept alive so raw pointers from find() never dangle.
  std::vector<std::unique_ptr<ServableModel>> Retired;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_BATCHER_H
