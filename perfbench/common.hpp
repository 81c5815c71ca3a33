// Shared pieces of the repository benchmark: clocks, the timing decorators
// that attribute time to a layer from outside the library, output checks,
// typed-failure accounting and the result record every workload fills.
//
// The benchmark adds no spans inside the program.  It wraps the public
// entry points of each layer instead:
//   core      Preconditioner::encode, core::reconstruct
//   compress  a Compressor decorator handed in through core::CodecPair
//   io        a FileOps decorator installed with io::set_file_ops, plus
//             timers around io::write_container / io::read_container
//   net       timers around each net::Client call
// A layer's self time is its call time minus the wrapped calls inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "core/preconditioner.hpp"
#include "io/file_ops.hpp"
#include "sim/field.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds accumulated from several threads.
class AtomicSeconds {
 public:
  void add(Clock::duration d) {
    ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                      .count(),
                  std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<std::int64_t> ns_{0};
};

/// The paper's codec pair for `codec` ("sz" or "zfp"): SZ block-relative
/// 1e-5 (reduced) / 1e-3 (delta), or ZFP fixed precision 16 / 8.
struct PaperCodecs {
  explicit PaperCodecs(const std::string& codec);
  rmp::core::CodecPair pair() const { return {reduced.get(), delta.get()}; }

  std::unique_ptr<rmp::compress::Compressor> reduced, delta;
};

/// num / den, or 0 when den is not positive.
inline double ratio_or_zero(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Compressor decorator: forwards to `inner` and records call time and
/// byte counts.  Codec calls can come from pool threads, so the totals
/// are atomic.  name() and the stream are the inner codec's, so archives
/// are byte-identical with and without the decorator.
class TimingCompressor final : public rmp::compress::Compressor {
 public:
  explicit TimingCompressor(const rmp::compress::Compressor& inner)
      : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool lossless() const override { return inner_.lossless(); }
  std::vector<std::uint8_t> compress(
      std::span<const double> data,
      const rmp::compress::Dims& dims) const override;
  std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const override;

  // compress()/decompress() are const in the interface; the totals are
  // what they record.
  mutable AtomicSeconds encode_time, decode_time;
  mutable std::atomic<std::uint64_t> in_bytes{0}, out_bytes{0};

 private:
  const rmp::compress::Compressor& inner_;
};

/// FileOps decorator: forwards to the ops that were active when it was
/// constructed and records syscall time by kind, fsync count, bytes
/// written and failed calls.  Called from server threads concurrently.
class TimingFileOps final : public rmp::io::FileOps {
 public:
  explicit TimingFileOps(rmp::io::FileOps& next) : next_(next) {}

  int open(const std::string& path, int flags,
           unsigned mode) noexcept override;
  long write(int fd, const void* data, std::size_t size) noexcept override;
  long pread(int fd, void* data, std::size_t size,
             std::uint64_t offset) noexcept override;
  long fsize(int fd) noexcept override;
  int fsync(int fd) noexcept override;
  int close(int fd) noexcept override;
  int rename(const std::string& from,
             const std::string& to) noexcept override;
  int unlink(const std::string& path) noexcept override;
  int ftruncate(int fd, std::uint64_t size) noexcept override;

  /// Seconds in every call, fsync and reads included.
  double total_seconds() const {
    return write_sys.seconds() + fsync_time.seconds() + read_sys.seconds();
  }

  AtomicSeconds write_sys;   ///< open/write/close/rename/unlink/ftruncate
  AtomicSeconds fsync_time;
  AtomicSeconds read_sys;    ///< pread/fsize
  std::atomic<std::uint64_t> fsyncs{0}, bytes_written{0}, errors{0};

 private:
  template <class R>
  R record(AtomicSeconds& bucket, Clock::time_point start, R result) {
    bucket.add(Clock::now() - start);
    if (result < 0) errors.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  rmp::io::FileOps& next_;
};

/// Installs `ops` as the process-wide FileOps for its lifetime and
/// restores the previous ops afterwards.  Install before any thread that
/// writes starts, and remove after it stops.
class ScopedFileOps {
 public:
  explicit ScopedFileOps(rmp::io::FileOps& ops)
      : previous_(rmp::io::set_file_ops(&ops)) {}
  ~ScopedFileOps() { rmp::io::set_file_ops(previous_); }
  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  rmp::io::FileOps* previous_;
};

/// Typed failure kinds an op is charged with.  "check" is a decode that
/// returned but failed the output check; "other" is any untyped exception.
struct Failures {
  std::map<std::string, std::uint64_t> by_kind;
  std::uint64_t total() const;
  void add(const std::string& kind) { ++by_kind[kind]; }
  void merge(const Failures& other);
};

/// Maps the in-flight exception to its failure kind.  Call only inside a
/// catch block.
std::string classify_current_exception();

/// what() of the in-flight exception, or "non-standard exception".  Call
/// only inside a catch block.
std::string current_exception_message();

/// Output check: same shape, every value finite, max |error| within
/// `tolerance` times the input's value range.  Returns an empty string on
/// success, else what failed.
std::string check_field(const rmp::sim::Field& input,
                        const rmp::sim::Field& output, double tolerance);

/// Per-codec max-error tolerance as a share of the field's value range.
/// SZ holds a block-relative bound (1e-5 reduced / 1e-3 delta), so 2e-3
/// leaves a factor-2 margin.  ZFP fixed precision bounds bits, not
/// error; the paper pair's worst measured case at 96^3 (one-base on
/// Sedov_pres) is 0.79 of the range, so the check caps it at the range.
double codec_tolerance(const std::string& codec);

/// Linear-interpolated quantile of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// The highest percentile, at most p99, that has at least ten of `n`
/// samples beyond it: 1 - 10/n, capped at 0.99 (0 when n <= 10).
double tail_level(std::size_t n);

/// Sample quantile at tail_level(samples.size()).
double tail_quantile(std::vector<double> samples);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Environment record printed with every result.
struct Environment {
  unsigned nproc = 0;
  std::size_t pool_threads = 0;
  double effective_cores = 0.0;
  long llc_bytes = 0;
  std::uint64_t field_bytes = 0;
};

/// nproc, pool size, last-level cache size and effective cores measured
/// by a short CPU burn on 1 and on nproc threads.
Environment probe_environment();

/// One metric value as it goes into the JSON result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  Failures failures;
  std::vector<Metric> metrics;
  /// Extra facts for the record line (sample counts, phase sizes).
  std::vector<Metric> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value) {
    notes.push_back({name, value, ""});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// Runs `setup` `times` times and returns the median of its wall
/// seconds; `teardown` undoes a set-up between repeats, untimed.
template <class Setup, class Teardown>
double median_setup_seconds(int times, Setup&& setup, Teardown&& teardown) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    if (i > 0) teardown();
    const auto start = Clock::now();
    setup();
    samples.push_back(seconds_between(start, Clock::now()));
  }
  return median(samples);
}

/// How many times set-up runs per measured run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

RunResult run_archive(const Options& options, const std::string& codec,
                      Environment& env);
RunResult run_service(const Options& options, Environment& env);

}  // namespace perfbench
