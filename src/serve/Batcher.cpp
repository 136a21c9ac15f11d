//===- serve/Batcher.cpp ---------------------------------------------------===//

#include "src/serve/Batcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace wootz;
using namespace wootz::serve;

Batcher::Batcher(std::shared_ptr<const ExecPlan> Plan,
                 BatcherOptions Options, RunLog *Log,
                 LatencyHistogram *Latency, ContextPool *Pool)
    : Plan(std::move(Plan)), Options(Options), Log(Log), Latency(Latency),
      Pool(Pool) {
  assert(this->Plan && "batcher needs a plan");
  if (!this->Pool) {
    OwnedPool = std::make_unique<ContextPool>(Options.Pool);
    this->Pool = OwnedPool.get();
  }
  const int Count = std::max(1, Options.Workers);
  Workers.reserve(static_cast<size_t>(Count));
  for (int I = 0; I < Count; ++I)
    Workers.emplace_back([this] { loop(); });
}

Batcher::~Batcher() { stop(); }

Result<Prediction> Batcher::predict(const Tensor &Sample) {
  assert(Sample.shape().rank() == 4 && Sample.shape()[0] == 1 &&
         "predict takes a single [1,C,H,W] sample");
  const auto Start = std::chrono::steady_clock::now();
  Pending Mine;
  Mine.Sample = &Sample;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stopping)
      return Error::failure("model is draining");
    if (Queue.size() >= Options.MaxQueuedRequests)
      return Error::failure("model overloaded");
    Queue.push_back(&Mine);
    WorkReady.notify_one();
    BatchDone.wait(Lock, [&] { return Mine.Done; });
  }
  if (!Mine.Error.empty())
    return Error::failure(Mine.Error);

  Prediction Out;
  Out.Logits = std::move(Mine.Logits);
  Out.BatchSize = Mine.BatchSize;
  for (size_t I = 1; I < Out.Logits.size(); ++I)
    if (Out.Logits[I] > Out.Logits[Out.ArgMax])
      Out.ArgMax = static_cast<int>(I);
  if (Latency)
    Latency->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
  if (Log)
    Log->bump("serve.predict.requests");
  return Out;
}

void Batcher::loop() {
  // Each batch runs through a PlanContext borrowed from the pool over
  // the shared immutable plan, so workers run concurrent batches without
  // copying a single weight. Contexts go back to the pool after each
  // batch, so idle models release their arenas.
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty()) {
      if (Stopping)
        return;
      continue;
    }
    // Bounded coalescing wait: the first sample is already here; give
    // companions MaxWaitMicros to arrive, but never more, and cut at
    // MaxBatch. A full batch skips the wait entirely.
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(Options.MaxWaitMicros);
    while (Queue.size() < static_cast<size_t>(Options.MaxBatch) &&
           !Stopping) {
      if (WorkReady.wait_until(Lock, Deadline) ==
          std::cv_status::timeout)
        break;
    }
    // The wait releases the lock, so a companion worker may have drained
    // the queue in the meantime: go back to waiting instead of cutting
    // an empty batch.
    if (Queue.empty()) {
      if (Stopping)
        return;
      continue;
    }
    std::vector<Pending *> Batch;
    const size_t Take =
        std::min(Queue.size(), static_cast<size_t>(Options.MaxBatch));
    for (size_t I = 0; I < Take; ++I) {
      Batch.push_back(Queue.front());
      Queue.pop_front();
    }
    Lock.unlock();
    {
      ContextPool::Lease Lease = Pool->acquire(*Plan);
      runBatch(Lease.context(), Batch);
    }
    Lock.lock();
    for (Pending *P : Batch)
      P->Done = true;
    BatchDone.notify_all();
    if (Stopping && Queue.empty())
      return;
  }
}

void Batcher::runBatch(PlanContext &Ctx, std::vector<Pending *> &Batch) {
  // The plan was compiled against the model's registered input extents,
  // so the only surprise a request can spring is a mismatched sample
  // shape; that request fails cleanly and the rest of the batch runs.
  std::vector<Pending *> Runnable;
  for (Pending *P : Batch) {
    const Shape &S = P->Sample->shape();
    if (S[1] == Plan->inputChannels() && S[2] == Plan->inputHeight() &&
        S[3] == Plan->inputWidth())
      Runnable.push_back(P);
    else
      P->Error = "sample shape " + S.str() +
                 " does not match the compiled plan's input extents";
  }
  if (Runnable.empty())
    return;
  const int Count = static_cast<int>(Runnable.size());
  const size_t SampleSize = Runnable.front()->Sample->size();
  Tensor Input(Shape{Count, Plan->inputChannels(), Plan->inputHeight(),
                     Plan->inputWidth()});
  for (int I = 0; I < Count; ++I)
    std::memcpy(Input.data() + static_cast<size_t>(I) * SampleSize,
                Runnable[static_cast<size_t>(I)]->Sample->data(),
                SampleSize * sizeof(float));

  const Tensor &Logits = Ctx.run(Input);
  if (Logits.shape().rank() != 2 || Logits.shape()[0] != Count) {
    for (Pending *P : Runnable)
      P->Error = "model produced logits of unexpected shape " +
                 Logits.shape().str();
    return;
  }
  const int Classes = Logits.shape()[1];
  for (int I = 0; I < Count; ++I) {
    Pending &P = *Runnable[static_cast<size_t>(I)];
    P.Logits = Tensor(Shape{Classes});
    std::memcpy(P.Logits.data(),
                Logits.data() + static_cast<size_t>(I) * Classes,
                static_cast<size_t>(Classes) * sizeof(float));
    P.BatchSize = Count;
  }
  if (Log) {
    Log->bump("serve.predict.batches");
    Log->bump("serve.predict.batched_samples", Count);
    if (Count > 1)
      Log->bump("serve.predict.coalesced", Count - 1);
  }
}

void Batcher::stop() {
  bool FirstStop = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Stopping) {
      Stopping = true;
      FirstStop = true;
      // Everything still queued fails fast: drain means "finish what is
      // running, refuse the rest", and these have not started.
      for (Pending *P : Queue) {
        P->Error = "model is draining";
        P->Done = true;
      }
      Queue.clear();
      WorkReady.notify_all();
      BatchDone.notify_all();
    }
  }
  if (FirstStop)
    for (std::thread &W : Workers)
      if (W.joinable())
        W.join();
}

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

Error ModelRegistry::add(const std::string &Id,
                         std::shared_ptr<AssembledNetwork> Network,
                         int Channels, int Height, int Width, int Classes,
                         std::string Origin) {
  if (!Network)
    return Error::failure("cannot register a null network");
  // Freeze the model once, at registration: every batcher worker then
  // executes the shared immutable plan through a private PlanContext.
  // The plan lowers every layer kind nn/Layers.h defines, so a compile
  // failure means a malformed network, and the registration fails.
  Result<ExecPlan> Compiled = ExecPlan::compile(
      Network->Network, Network->InputNode, Network->LogitsNode, Channels,
      Height, Width);
  if (!Compiled)
    return Error::failure("freezing model '" + Id +
                          "': " + Compiled.message());
  if (Log)
    Log->bump("serve.models.plans_compiled");
  return add(Id, std::make_shared<const ExecPlan>(Compiled.take()),
             Classes, std::move(Origin));
}

Error ModelRegistry::add(const std::string &Id,
                         std::shared_ptr<const ExecPlan> Plan, int Classes,
                         std::string Origin) {
  if (!Plan)
    return Error::failure("cannot register a null plan");
  auto Model = std::make_unique<ServableModel>();
  Model->Id = Id;
  Model->Channels = Plan->inputChannels();
  Model->Height = Plan->inputHeight();
  Model->Width = Plan->inputWidth();
  Model->Classes = Classes;
  Model->Origin = std::move(Origin);
  Model->Plan = std::move(Plan);
  Model->Engine = std::make_unique<Batcher>(Model->Plan, Batching, Log,
                                            Latency, &Contexts);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Models.emplace(Id, std::move(Model));
  (void)It;
  if (!Inserted)
    return Error::failure("model id '" + Id + "' is already registered");
  Order.push_back(Id);
  if (Log)
    Log->bump("serve.models.registered");
  return Error::success();
}

Error ModelRegistry::remove(const std::string &Id) {
  std::unique_ptr<ServableModel> Victim;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Models.find(Id);
    if (It == Models.end())
      return Error::failure("unknown model '" + Id + "'");
    Victim = std::move(It->second);
    Models.erase(It);
    Order.erase(std::remove(Order.begin(), Order.end(), Id), Order.end());
  }
  // Stop outside the lock: predict() callers inside the engine must be
  // able to finish while we wait for the workers to join.
  Victim->Engine->stop();
  std::lock_guard<std::mutex> Lock(Mutex);
  Retired.push_back(std::move(Victim));
  if (Log)
    Log->bump("serve.models.removed");
  return Error::success();
}

ServableModel *ModelRegistry::find(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Models.find(Id);
  return It == Models.end() ? nullptr : It->second.get();
}

std::vector<std::string> ModelRegistry::ids() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Order;
}

size_t ModelRegistry::count() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Models.size();
}

void ModelRegistry::stopAll() {
  std::vector<ServableModel *> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &[Id, Model] : Models)
      All.push_back(Model.get());
  }
  for (ServableModel *Model : All)
    Model->Engine->stop();
}
