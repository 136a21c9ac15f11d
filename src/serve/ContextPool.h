//===- serve/ContextPool.h - Registry-wide execution-context pool ----------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared pool of execution contexts for the serving path. Batcher
/// workers acquire a context (an ExecContext, or a PlanContext for frozen
/// models) for the duration of one batch and release it back, so buffers
/// are shared across workers of one model, and contexts idle past a trim
/// threshold are destroyed on the next release. A model that has not
/// seen a request in minutes holds no activation buffers.
///
/// Contexts hold only scratch state (activation tensors, arena
/// buffers); model outputs are a pure function of weights and input, so
/// pooling cannot change a single logit.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_CONTEXTPOOL_H
#define WOOTZ_SERVE_CONTEXTPOOL_H

#include "src/plan/Plan.h"
#include "src/runtime/RunLog.h"
#include "src/train/Assembly.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wootz {
namespace serve {

/// Pool policy.
struct ContextPoolOptions {
  /// A context parked longer than this is destroyed at the next
  /// release (lazy trim — no dedicated timer thread).
  double IdleTrimSeconds = 30.0;
  /// Hard cap on parked contexts; beyond it the oldest is evicted.
  size_t MaxIdle = 64;
};

/// The registry-wide pool. Thread-safe.
class ContextPool {
  struct Entry {
    const AssembledNetwork *Key = nullptr;
    ExecContext Exec;
    PlanContext Plan;
    double ReleasedAt = 0.0;
  };

public:
  /// RAII handle over one acquired context pair; returns it to the
  /// pool on destruction.
  class Lease {
  public:
    Lease() = default;
    Lease(ContextPool *Pool, std::unique_ptr<Entry> E)
        : Pool(Pool), E(std::move(E)) {}
    Lease(Lease &&Other) noexcept
        : Pool(Other.Pool), E(std::move(Other.E)) {
      Other.Pool = nullptr;
    }
    Lease &operator=(Lease &&Other) noexcept {
      reset();
      Pool = Other.Pool;
      E = std::move(Other.E);
      Other.Pool = nullptr;
      return *this;
    }
    ~Lease() { reset(); }

    ExecContext &exec() { return E->Exec; }
    PlanContext &plan() { return E->Plan; }

  private:
    void reset() {
      if (Pool && E)
        Pool->release(std::move(E));
      Pool = nullptr;
    }
    ContextPool *Pool = nullptr;
    std::unique_ptr<Entry> E;
  };

  explicit ContextPool(ContextPoolOptions Options = ContextPoolOptions())
      : Options(Options) {}

  ContextPool(const ContextPool &) = delete;
  ContextPool &operator=(const ContextPool &) = delete;

  /// A context pair for \p Model: a parked one when available (buffers
  /// stay warm), freshly bound otherwise. \p Plan non-null additionally
  /// binds the plan context (frozen models).
  Lease acquire(const std::shared_ptr<AssembledNetwork> &Model,
                const ExecPlan *Plan);

  /// Destroys every parked context (registry teardown, before the
  /// model graphs go away).
  void clear();

  /// serve.contexts.* counters: pooled (currently parked), created,
  /// reused, trimmed.
  std::map<std::string, int64_t> counters() const;

private:
  friend class Lease;
  void release(std::unique_ptr<Entry> E);

  ContextPoolOptions Options;
  RunLog Clock; ///< Idle-age measurement only.
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<Entry>> Idle;
  int64_t Created = 0;
  int64_t Reused = 0;
  int64_t Trimmed = 0;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_CONTEXTPOOL_H
