//===- support/ThreadPool.cpp ----------------------------------------------===//

#include "src/support/ThreadPool.h"

#include <cassert>

using namespace wootz;

ThreadPool::ThreadPool(unsigned ThreadCount) : ThreadCount(ThreadCount) {
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I < ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  // Drain first: a running task may enqueue follow-up work, and setting
  // ShuttingDown while such work is still being produced would let
  // workers exit with tasks left in the queue. After wait() returns no
  // task is running, so nothing can call enqueue() anymore and the
  // "enqueue after shutdown began" race is impossible by construction.
  wait();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  TaskAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::enqueue(std::function<void()> Task) {
  if (ThreadCount == 0) {
    Task();
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!ShuttingDown && "enqueue after ThreadPool shutdown began");
    Tasks.push(std::move(Task));
    ++InFlight;
  }
  TaskAvailable.notify_one();
}

void ThreadPool::wait() {
  if (ThreadCount == 0)
    return;
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return InFlight == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      TaskAvailable.wait(Lock,
                         [this] { return ShuttingDown || !Tasks.empty(); });
      if (Tasks.empty())
        return; // Shutting down with an empty queue.
      Task = std::move(Tasks.front());
      Tasks.pop();
    }
    // Scope guard: InFlight must drop even if Task() exits abnormally,
    // or wait() (and the draining destructor) would hang forever.
    struct Completion {
      ThreadPool &Pool;
      ~Completion() {
        std::lock_guard<std::mutex> Lock(Pool.Mutex);
        if (--Pool.InFlight == 0)
          Pool.AllDone.notify_all();
      }
    } Finished{*this};
    Task();
  }
}
