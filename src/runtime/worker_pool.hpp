#pragma once
// Persistent worker pool for the runtime inference Session: the threads are
// created once, at pool construction, and every batch submit only wakes them
// — no per-call std::thread spawn.
//
// Work is a half-open row range [0, rows): workers pull fixed-size chunks off
// a shared cursor, so uneven per-row cost balances automatically. The
// submitting thread always participates as slot 0; a pool of total size 1
// therefore spawns no threads at all and runs everything inline. Each row
// callback receives the slot index of the thread executing it, which is how
// the Session maps tiles onto per-slot Scratch state without any locking.
//
// The pool is multi-client: run() may be called from any number of threads
// concurrently (each call is an independent job; jobs queue FIFO and workers
// drain them in order, several at once when chunks of an older job run while
// a newer job starts). This is what lets every dispatcher Session of every
// per-shard serve::DynamicBatcher share ONE pool sized to the machine
// instead of over-subscribing cores with a private pool each — the serving
// stack's compute budget becomes one knob. Slot indices are pool-wide and
// stable (slot s is always the same OS thread), so per-slot caller state
// such as Session Scratch stays race-free: two jobs may interleave on one
// slot, but never concurrently.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dp::runtime {

class WorkerPool {
 public:
  /// Process one row on the thread occupying `slot` (0 = the submitting
  /// thread, 1..slots()-1 = pool workers).
  using RowFn = std::function<void(std::size_t row, std::size_t slot)>;

  /// Rows handed out per cursor pop. Small enough to balance uneven rows,
  /// large enough that the claim lock never shows up next to the EMAC
  /// matvec work. Batches no larger than one chunk skip the pool entirely
  /// and run on the submitting thread.
  static constexpr std::size_t kRowsPerChunk = 8;

  /// `total_threads` counts the submitting thread: the pool spawns
  /// total_threads - 1 workers. 0 picks std::thread::hardware_concurrency().
  explicit WorkerPool(std::size_t total_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total concurrency: spawned workers + the submitting thread.
  std::size_t slots() const { return workers_.size() + 1; }

  /// Run fn over every row in [0, rows); blocks until all rows are done.
  /// The first exception thrown by any slot is rethrown here once the job
  /// settles (its remaining unclaimed rows are abandoned). Safe to call from
  /// several threads at once — each call is its own job; the per-slot
  /// single-thread guarantee above still holds. The submitting thread always
  /// helps drain its own job as slot 0 while it waits.
  ///
  /// `chunk` is the rows handed out per cursor pop. The default suits
  /// cheap per-row work; callers whose rows are already coarse-grained
  /// (e.g. a Session submitting whole sample TILES to the blocked matmul
  /// kernels) pass 1 so a handful of heavy rows still spreads across slots.
  void run(std::size_t rows, const RowFn& fn, std::size_t chunk = kRowsPerChunk);

 private:
  /// One in-flight run() call. Lives on the submitter's stack; every field
  /// is guarded by m_ and the job outlives its last touch because completion
  /// (done + skipped == rows) can only be reached — and the submitter can
  /// only return — under that same mutex.
  struct Job {
    const RowFn* fn = nullptr;
    std::size_t rows = 0;
    std::size_t chunk = kRowsPerChunk;  ///< rows claimed per cursor pop
    std::size_t next = 0;     ///< first unclaimed row
    std::size_t done = 0;     ///< claimed rows fully processed
    std::size_t skipped = 0;  ///< rows abandoned by the error path
    std::exception_ptr error;
  };

  void worker_main(std::size_t slot);
  /// With m_ held: claim one chunk of `job`, process it unlocked, re-lock
  /// and account. Returns false (lock still held, nothing processed) once
  /// the job has no rows left to claim.
  bool work_one(std::unique_lock<std::mutex>& lock, Job& job, std::size_t slot);
  /// Caller holds m_. Jobs leave the queue the moment their last row is
  /// claimed (or their error path fires), so workers never pick them up.
  void unqueue(Job& job);

  std::vector<std::thread> workers_;

  std::mutex m_;
  std::condition_variable job_cv_;   // workers sleep here between jobs
  std::condition_variable done_cv_;  // submitters wait here per job
  bool stop_ = false;
  std::deque<Job*> queue_;  // jobs with unclaimed rows, FIFO
};

}  // namespace dp::runtime
