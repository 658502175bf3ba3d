#include "common/shard_pool.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace bmg::shard {

namespace {

/// Grid cells are whole simulations; more workers than this would be
/// memory-bound long before it is CPU-bound.
constexpr std::size_t kMaxWorkers = 64;

/// True while this thread runs a cell body: run_cells then runs a
/// nested grid inline instead of queueing it behind its own cell.
thread_local bool t_in_cell = false;

std::size_t default_worker_count() {
  if (const char* env = std::getenv("BMG_SHARD_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0)
      return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxWorkers);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxWorkers);
}

[[nodiscard]] double thread_cpu_seconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#endif
  return 0.0;
}

/// One grid dispatch: cells are dealt from `next`; results go to
/// caller-indexed slots, so scheduling freedom never reaches the
/// artifact.
struct GridJob {
  const CellFn* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::size_t retired = 0;  ///< pool workers done with this job
  std::vector<std::exception_ptr> errors;  // indexed by cell
  std::vector<CellStats> stats;            // indexed by cell

  void run_cell(std::size_t cell, std::size_t worker) noexcept {
    CellStats& st = stats[cell];
    st.cell = cell;
    st.worker = worker;
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_seconds();
    t_in_cell = true;
    try {
      (*fn)(cell);
    } catch (...) {
      errors[cell] = std::current_exception();
    }
    t_in_cell = false;
    st.cpu_s = thread_cpu_seconds() - cpu0;
    st.wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  }

  void drain(std::size_t worker) noexcept {
    for (std::size_t c = next.fetch_add(1); c < n; c = next.fetch_add(1))
      run_cell(c, worker);
  }
};

/// The persistent shard-worker pool.  Workers park on a condition
/// variable between grids; the submitting thread joins each grid as
/// worker 0.
class ShardPool {
 public:
  static ShardPool& instance() {
    static ShardPool pool;
    return pool;
  }

  std::size_t workers() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    ensure_started_locked();
    return workers_count_;
  }

  void set_workers(std::size_t n) {
    std::lock_guard<std::mutex> submit(submit_mutex_);
    std::lock_guard<std::mutex> lock(config_mutex_);
    stop_workers_locked();
    workers_count_ = n == 0 ? default_worker_count() : std::min(n, kMaxWorkers);
    started_ = true;
    spawn_workers_locked();
  }

  void run(GridJob& job) {
    std::lock_guard<std::mutex> submit(submit_mutex_);
    std::size_t helpers;
    {
      std::lock_guard<std::mutex> lock(config_mutex_);
      ensure_started_locked();
      helpers = threads_.size();
    }
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      job_ = &job;
      ++generation_;
    }
    job_cv_.notify_all();

    // The submitter deals itself cells as worker 0.
    job.drain(0);

    // Wait for every pool worker to retire from this dispatch before
    // the stack-allocated job leaves scope; the mutex handshake makes
    // their stats/error writes visible here.
    std::unique_lock<std::mutex> lock(job_mutex_);
    done_cv_.wait(lock, [&] { return job.retired == helpers; });
    job_ = nullptr;
  }

 private:
  ShardPool() = default;
  ~ShardPool() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    stop_workers_locked();
  }

  void ensure_started_locked() {
    if (started_) return;
    workers_count_ = default_worker_count();
    started_ = true;
    spawn_workers_locked();
  }

  void spawn_workers_locked() {
    stopping_ = false;
    for (std::size_t i = 0; i + 1 < workers_count_; ++i)
      threads_.emplace_back([this, worker = i + 1] { worker_loop(worker); });
  }

  void stop_workers_locked() {
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      stopping_ = true;
      ++generation_;
    }
    job_cv_.notify_all();
    for (std::thread& w : threads_) w.join();
    threads_.clear();
  }

  void worker_loop(std::size_t worker) {
    std::uint64_t seen = 0;
    while (true) {
      GridJob* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(job_mutex_);
        job_cv_.wait(lock, [&] { return generation_ != seen || stopping_; });
        if (stopping_) return;
        seen = generation_;
        job = job_;
      }
      if (job != nullptr) job->drain(worker);
      {
        std::lock_guard<std::mutex> lock(job_mutex_);
        if (job != nullptr) ++job->retired;
      }
      done_cv_.notify_all();
    }
  }

  std::mutex submit_mutex_;
  std::mutex config_mutex_;
  bool started_ = false;
  std::size_t workers_count_ = 1;
  std::vector<std::thread> threads_;

  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  GridJob* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
};

}  // namespace

std::size_t worker_count() { return ShardPool::instance().workers(); }

void set_worker_count(std::size_t n) { ShardPool::instance().set_workers(n); }

std::vector<CellStats> run_cells(std::size_t n, const CellFn& fn) {
  if (n == 0) return {};

  GridJob job;
  job.fn = &fn;
  job.n = n;
  job.errors.resize(n);
  job.stats.resize(n);

  if (ShardPool::instance().workers() <= 1 || t_in_cell) {
    // Exact serial path: cells run inline on the calling thread in
    // grid order, with the same per-cell guards and accounting.  A
    // nested run_cells from inside a cell serializes the same way.
    for (std::size_t c = 0; c < n; ++c) job.run_cell(c, 0);
  } else {
    ShardPool::instance().run(job);
  }

  // Deterministic error propagation: lowest cell index wins.
  for (const std::exception_ptr& e : job.errors)
    if (e) std::rethrow_exception(e);
  return std::move(job.stats);
}

}  // namespace bmg::shard
