#include "core/staging.hpp"

#include <map>

#include "obs/obs.hpp"

namespace rmp::core {

StagingNode::StagingNode(const core::CodecPair& codecs, StagingOptions options)
    : codecs_(codecs), options_(std::move(options)) {
  if (options_.max_queue == 0) options_.max_queue = 1;
  worker_ = std::thread([this] { worker_loop(); });
}

StagingNode::~StagingNode() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  worker_.join();
}

std::size_t StagingNode::submit(sim::Field field) {
  StagingJob job;
  job.field = std::move(field);
  return submit(std::move(job));
}

std::size_t StagingNode::submit(StagingJob job) {
  const obs::ScopedSpan span("staging/submit");
  std::unique_lock lock(mutex_);
  space_ready_.wait(lock, [this] {
    return queue_.size() < options_.max_queue || stopping_;
  });
  if (stopping_) {
    throw std::runtime_error("StagingNode: submit after shutdown");
  }
  stats_.submit_block_seconds += span.elapsed_seconds();
  const std::size_t id = stats_.fields_submitted++;
  const std::size_t bytes_in =
      job.field ? job.field->size() * sizeof(double)
                : (job.container ? job.container->payload_bytes() : 0);
  stats_.bytes_in += bytes_in;
  obs::count("staging.fields_submitted");
  obs::count("staging.bytes_in", bytes_in);
  obs::gauge_max("staging.queue_depth", queue_.size() + 1);
  queue_.emplace_back(id, std::move(job));
  ++in_flight_;
  lock.unlock();
  work_ready_.notify_one();
  return id;
}

void StagingNode::drain() {
  std::unique_lock lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0 && queue_.empty(); });
}

StagingStats StagingNode::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void StagingNode::worker_loop() {
  // Preconditioners are cached per method: the common case is one method
  // for the whole run, but daemon jobs may override per request.
  std::map<std::string, std::unique_ptr<Preconditioner>> preconditioners;
  const auto preconditioner_for =
      [&](const std::string& name) -> Preconditioner& {
    auto it = preconditioners.find(name);
    if (it == preconditioners.end()) {
      it = preconditioners.emplace(name, core::make_preconditioner(name)).first;
    }
    return *it->second;
  };

  for (;;) {
    std::pair<std::size_t, StagingJob> item;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    space_ready_.notify_one();

    StagingJob& job = item.second;
    StagingJobResult result;
    result.id = item.first;

    // A failed encode or write must not escape the worker thread (that
    // would std::terminate the process mid-simulation): record it, keep
    // draining the queue, and let the application read the verdict from
    // stats() or the job callback.  write_container's durable atomic
    // publish guarantees a failed write leaves no torn archive behind.
    try {
      const obs::ScopedSpan span("staging/encode");
      io::Container container;
      std::size_t bytes_out = 0;
      if (job.field) {
        core::EncodeStats encode_stats;
        const std::string& method =
            job.method.empty() ? options_.method : job.method;
        container =
            preconditioner_for(method).encode(*job.field, codecs_,
                                              &encode_stats);
        bytes_out = encode_stats.total_bytes;
        result.method = method;
      } else if (job.container) {
        container = std::move(*job.container);
        bytes_out = container.payload_bytes();
        result.method = container.method;
      } else {
        throw std::runtime_error("StagingNode: job carries neither field "
                                 "nor container");
      }
      obs::count("staging.bytes_out", bytes_out);

      if (options_.output_dir) {
        io::SerializeOptions serialize = options_.serialize;
        if (job.retry) serialize.retry = *job.retry;
        const std::string name =
            job.name.empty() ? "field_" + std::to_string(item.first) + ".rmp"
                             : job.name;
        result.path = *options_.output_dir / name;
        io::write_container(result.path, container, serialize);
      }

      result.ok = true;
      result.bytes_out = bytes_out;
      result.seconds = span.elapsed_seconds();
      obs::count("staging.fields_completed");

      {
        std::lock_guard lock(mutex_);
        stats_.fields_completed++;
        stats_.bytes_out += bytes_out;
        stats_.total_compress_seconds += result.seconds;
        if (!options_.output_dir) {
          results_.push_back(std::move(container));
        }
      }
    } catch (const std::exception& e) {
      obs::count("staging.fields_failed");
      result.ok = false;
      result.error = std::current_exception();
      std::lock_guard lock(mutex_);
      stats_.fields_failed++;
      stats_.last_error = e.what();
    }

    // The callback runs before the job is counted out of in_flight_, so
    // drain() returning guarantees every completion has been delivered.
    if (job.on_complete) job.on_complete(result);

    {
      std::lock_guard lock(mutex_);
      --in_flight_;
    }
    drained_.notify_all();
  }
}

}  // namespace rmp::core
