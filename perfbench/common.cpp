#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <new>
#include <thread>

#include "compress/codec_error.hpp"
#include "compress/factory.hpp"
#include "core/precond_error.hpp"
#include "io/container_error.hpp"
#include "net/client.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

namespace {

/// Adds the elapsed time to `bucket` when the scope ends, also when the
/// wrapped call throws.
class ScopedAdd {
 public:
  explicit ScopedAdd(AtomicSeconds& bucket)
      : bucket_(bucket), start_(Clock::now()) {}
  ~ScopedAdd() { bucket_.add(Clock::now() - start_); }
  ScopedAdd(const ScopedAdd&) = delete;
  ScopedAdd& operator=(const ScopedAdd&) = delete;

 private:
  AtomicSeconds& bucket_;
  Clock::time_point start_;
};

}  // namespace

PaperCodecs::PaperCodecs(const std::string& codec)
    : reduced(codec == "zfp" ? rmp::compress::make_zfp_original()
                             : rmp::compress::make_sz_original()),
      delta(codec == "zfp" ? rmp::compress::make_zfp_delta()
                           : rmp::compress::make_sz_delta()) {}

std::vector<std::uint8_t> TimingCompressor::compress(
    std::span<const double> data, const rmp::compress::Dims& dims) const {
  const ScopedAdd timer(encode_time);
  auto out = inner_.compress(data, dims);
  in_bytes.fetch_add(data.size() * sizeof(double), std::memory_order_relaxed);
  out_bytes.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::vector<double> TimingCompressor::decompress(
    std::span<const std::uint8_t> stream) const {
  const ScopedAdd timer(decode_time);
  return inner_.decompress(stream);
}

int TimingFileOps::open(const std::string& path, int flags,
                        unsigned mode) noexcept {
  const auto start = Clock::now();
  return record(write_sys, start, next_.open(path, flags, mode));
}

long TimingFileOps::write(int fd, const void* data, std::size_t size) noexcept {
  const auto start = Clock::now();
  const long written = record(write_sys, start, next_.write(fd, data, size));
  if (written > 0)
    bytes_written.fetch_add(static_cast<std::uint64_t>(written),
                            std::memory_order_relaxed);
  return written;
}

long TimingFileOps::pread(int fd, void* data, std::size_t size,
                          std::uint64_t offset) noexcept {
  const auto start = Clock::now();
  return record(read_sys, start, next_.pread(fd, data, size, offset));
}

long TimingFileOps::fsize(int fd) noexcept {
  const auto start = Clock::now();
  return record(read_sys, start, next_.fsize(fd));
}

int TimingFileOps::fsync(int fd) noexcept {
  const auto start = Clock::now();
  fsyncs.fetch_add(1, std::memory_order_relaxed);
  return record(fsync_time, start, next_.fsync(fd));
}

int TimingFileOps::close(int fd) noexcept {
  const auto start = Clock::now();
  return record(write_sys, start, next_.close(fd));
}

int TimingFileOps::rename(const std::string& from,
                          const std::string& to) noexcept {
  const auto start = Clock::now();
  return record(write_sys, start, next_.rename(from, to));
}

int TimingFileOps::unlink(const std::string& path) noexcept {
  const auto start = Clock::now();
  return record(write_sys, start, next_.unlink(path));
}

int TimingFileOps::ftruncate(int fd, std::uint64_t size) noexcept {
  const auto start = Clock::now();
  return record(write_sys, start, next_.ftruncate(fd, size));
}

std::uint64_t Failures::total() const {
  std::uint64_t sum = 0;
  for (const auto& [kind, count] : by_kind) sum += count;
  return sum;
}

void Failures::merge(const Failures& other) {
  for (const auto& [kind, count] : other.by_kind) by_kind[kind] += count;
}

std::string classify_current_exception() {
  try {
    throw;
  } catch (const rmp::compress::CodecError&) {
    return "CodecError";
  } catch (const rmp::io::ContainerError&) {
    return "ContainerError";
  } catch (const rmp::core::PreconditionError&) {
    return "PreconditionError";
  } catch (const rmp::net::RemoteError&) {
    return "RemoteError";
  } catch (const rmp::net::NetError&) {
    return "NetError";
  } catch (const std::bad_alloc&) {
    return "bad_alloc";
  } catch (...) {
    return "other";
  }
}

std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "non-standard exception";
  }
}

std::string check_field(const rmp::sim::Field& input,
                        const rmp::sim::Field& output, double tolerance) {
  if (input.nx() != output.nx() || input.ny() != output.ny() ||
      input.nz() != output.nz() || input.size() != output.size())
    return "shape mismatch";
  const auto a = input.flat();
  const auto b = output.flat();
  const auto [lo, hi] = std::minmax_element(a.begin(), a.end());
  const double limit = tolerance * (a.empty() ? 0.0 : *hi - *lo);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(b[i])) return "non-finite value";
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  if (worst > limit)
    return "max error " + std::to_string(worst) + " above " +
           std::to_string(limit);
  return {};
}

double codec_tolerance(const std::string& codec) {
  return codec == "zfp" ? 1.0 : 2e-3;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double tail_level(std::size_t n) {
  if (n <= 10) return 0.0;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double tail_quantile(std::vector<double> samples) {
  const double level = tail_level(samples.size());
  return quantile(std::move(samples), level);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

/// A fixed floating-point loop; returns its result so it is not elided.
double burn() {
  double x = 1.0;
  for (int i = 0; i < 100'000'000; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

double burn_seconds(unsigned threads) {
  std::vector<std::thread> workers;
  std::vector<double> sink(threads);
  const auto start = Clock::now();
  for (unsigned t = 0; t < threads; ++t)
    workers.emplace_back([&sink, t] { sink[t] = burn(); });
  for (auto& worker : workers) worker.join();
  const double elapsed = seconds_between(start, Clock::now());
  volatile double keep = sink[0];
  (void)keep;
  return elapsed;
}

}  // namespace

Environment probe_environment() {
  Environment env;
  env.nproc = std::max(1u, std::thread::hardware_concurrency());
  env.pool_threads = rmp::parallel::global_pool().worker_count();
  env.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (env.llc_bytes <= 0) env.llc_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const double one = burn_seconds(1);
  const double all = burn_seconds(env.nproc);
  env.effective_cores = all > 0.0 ? env.nproc * one / all : 0.0;
  return env;
}

}  // namespace perfbench
