//===- serve/ContextPool.cpp -----------------------------------------------===//

#include "src/serve/ContextPool.h"

#include <algorithm>

using namespace wootz;
using namespace wootz::serve;

ContextPool::Lease ContextPool::acquire(const ExecPlan &Plan) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (size_t I = 0; I < Idle.size(); ++I) {
      if (Idle[I]->Context.plan() != &Plan)
        continue;
      std::unique_ptr<Entry> E = std::move(Idle[I]);
      Idle.erase(Idle.begin() + static_cast<long>(I));
      ++Reused;
      return Lease(this, std::move(E));
    }
  }
  auto E = std::make_unique<Entry>();
  E->Context.bind(Plan);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Created;
  }
  return Lease(this, std::move(E));
}

void ContextPool::release(std::unique_ptr<Entry> E) {
  E->ReleasedAt = Clock.now();
  const double Now = E->ReleasedAt;
  std::lock_guard<std::mutex> Lock(Mutex);
  Idle.push_back(std::move(E));
  // Lazy trim: contexts idle past the threshold die now, and the pool
  // never parks more than MaxIdle (oldest evicted first). No timer
  // thread — a pool nobody touches holds its contexts, which is fine
  // because nobody is allocating either.
  auto Dead = std::remove_if(
      Idle.begin(), Idle.end() - 1, [&](const std::unique_ptr<Entry> &P) {
        return Now - P->ReleasedAt > Options.IdleTrimSeconds;
      });
  Trimmed += Idle.end() - 1 - Dead;
  Idle.erase(Dead, Idle.end() - 1);
  while (Idle.size() > Options.MaxIdle) {
    size_t Oldest = 0;
    for (size_t I = 1; I < Idle.size(); ++I)
      if (Idle[I]->ReleasedAt < Idle[Oldest]->ReleasedAt)
        Oldest = I;
    Idle.erase(Idle.begin() + static_cast<long>(Oldest));
    ++Trimmed;
  }
}

void ContextPool::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Idle.clear();
}

std::map<std::string, int64_t> ContextPool::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, int64_t> Out;
  Out["serve.contexts.pooled"] = static_cast<int64_t>(Idle.size());
  Out["serve.contexts.created"] = Created;
  Out["serve.contexts.reused"] = Reused;
  Out["serve.contexts.trimmed"] = Trimmed;
  return Out;
}
