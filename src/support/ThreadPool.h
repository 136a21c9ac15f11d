//===- support/ThreadPool.h - Fixed-size worker pool -----------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool: the HTTP server runs its connection
/// handlers on it. With ThreadCount == 0 the pool degrades to inline
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SUPPORT_THREADPOOL_H
#define WOOTZ_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wootz {

/// Runs enqueued tasks on a fixed set of worker threads.
class ThreadPool {
public:
  /// Creates \p ThreadCount workers; 0 means inline (caller-thread)
  /// execution.
  explicit ThreadPool(unsigned ThreadCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task; inline pools run it immediately.
  void enqueue(std::function<void()> Task);

  /// Blocks until every enqueued task has finished.
  void wait();

private:
  void workerLoop();

  unsigned ThreadCount;
  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Tasks;
  std::mutex Mutex;
  std::condition_variable TaskAvailable;
  std::condition_variable AllDone;
  size_t InFlight = 0;
  bool ShuttingDown = false;
};

} // namespace wootz

#endif // WOOTZ_SUPPORT_THREADPOOL_H
