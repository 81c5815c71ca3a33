// Asynchronous staging node (Table IV's winning configuration, §V-B.4):
// the application hands its field to the staging service and returns to
// computing immediately; a background worker preconditions, compresses
// and "writes" (via the storage model or a real directory) off the
// critical path.  This is the working-code counterpart of
// make_staging_row()'s arithmetic.
//
// The node is also rmpd's in-process write-behind worker: jobs may carry
// an already-encoded container (the daemon encodes on the compute pool,
// then stages only the durable write), a target name, a per-job
// io::RetryPolicy (threading the request deadline into disk backoff
// loops) and a completion callback invoked once the write is durable --
// which is what lets the daemon answer a store request only after the
// bytes actually survive a crash.  Admission is submit() alone: a full
// queue blocks the submitter, which is the write-behind backpressure.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/preconditioner.hpp"
#include "io/container.hpp"
#include "sim/field.hpp"

namespace rmp::core {

struct StagingOptions {
  /// Preconditioner applied on the staging node ("pca" in the paper row).
  std::string method = "pca";
  /// Directory for the output containers; unset = keep in memory only.
  std::optional<std::filesystem::path> output_dir;
  /// Backpressure: enqueue blocks once this many fields are waiting.
  std::size_t max_queue = 8;
  /// Serialization (parity, default retry policy) for durable writes.
  io::SerializeOptions serialize;
};

/// Completion record handed to a job's on_complete callback (and, for
/// failures, summarized in StagingStats).
struct StagingJobResult {
  std::size_t id = 0;
  bool ok = false;
  /// The failure itself (a std::exception), so the caller classifies it
  /// by type; null when ok.
  std::exception_ptr error;
  std::string method;  ///< preconditioner that ran (field jobs)
  std::size_t bytes_out = 0;
  std::filesystem::path path;  ///< where the container landed, if written
  double seconds = 0.0;        ///< encode + write wall time
};

/// One unit of staging work.  Exactly one of `field` (encode + write) or
/// `container` (write only) must be set.
struct StagingJob {
  std::optional<sim::Field> field;
  std::optional<io::Container> container;
  /// Output file name (sanitized by the caller); empty = "field_<id>.rmp".
  std::string name;
  /// Preconditioner override for field jobs; empty = StagingOptions.method.
  std::string method;
  /// Per-job retry/deadline policy for the durable write; overrides the
  /// node-level StagingOptions.serialize.retry.
  std::optional<io::RetryPolicy> retry;
  /// Invoked from the worker thread after the job completes (durably, for
  /// written jobs) or fails.  Must not throw.  May be empty.
  std::function<void(const StagingJobResult&)> on_complete;
};

struct StagingStats {
  std::size_t fields_submitted = 0;
  std::size_t fields_completed = 0;
  /// Fields whose encode or durable write failed.  The worker records the
  /// failure and keeps serving the queue: one full disk must not take the
  /// whole staging service (and the submitting simulation) down with it.
  std::size_t fields_failed = 0;
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  double total_compress_seconds = 0.0;
  /// Wall time the *submitter* spent blocked in submit() -- the only cost
  /// on the application's critical path.
  double submit_block_seconds = 0.0;
  /// what() of the most recent failure; empty when fields_failed == 0.
  std::string last_error;
};

class StagingNode {
 public:
  /// Codecs must outlive the node.
  StagingNode(const core::CodecPair& codecs, StagingOptions options = {});
  ~StagingNode();

  StagingNode(const StagingNode&) = delete;
  StagingNode& operator=(const StagingNode&) = delete;

  /// Hand a field to the staging service.  Returns the sequence id.
  /// Blocks only when the queue is full (backpressure).
  std::size_t submit(sim::Field field);

  /// General form: blocks when the queue is full.
  std::size_t submit(StagingJob job);

  /// Wait until every submitted field has been processed.
  void drain();

  /// Snapshot of the statistics (valid any time; exact after drain()).
  StagingStats stats() const;

  /// In-memory results (when no output_dir was configured), in completion
  /// order.  Call after drain().
  const std::vector<io::Container>& results() const { return results_; }

 private:
  void worker_loop();

  const core::CodecPair codecs_;
  StagingOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable space_ready_;
  std::condition_variable drained_;
  std::deque<std::pair<std::size_t, StagingJob>> queue_;
  bool stopping_ = false;
  std::size_t in_flight_ = 0;

  StagingStats stats_;
  std::vector<io::Container> results_;
  std::thread worker_;
};

}  // namespace rmp::core
