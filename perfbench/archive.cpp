// archive-sz / archive-zfp: what `rmpc compress` followed by
// `rmpc decompress` does, in-process.  One op is
//   make_preconditioner(m)->encode -> io::write_container (durable, parity)
//   -> io::read_container -> core::reconstruct -> check against the input
// over four 96^3 fields (Heat3d, Sedov_pres, Yf17_temp, Fish) and four
// methods (identity, one-base, pca, wavelet).  A round is those 16 ops in
// a seed-shuffled order; runs measure whole rounds, so ratio, PSNR and
// the set of failing ops do not depend on how many rounds fit.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <set>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "io/container.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/datasets.hpp"
#include "stats/metrics.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using rmp::sim::Field;

/// Scale 2.0 gives 96^3 doubles (7.08 MB) per field.
constexpr double kScale = 2.0;
/// Traced passes run a fixed number of rounds so their counts are exact.
constexpr int kTracedRounds = 2;

const std::vector<std::string>& methods() {
  static const std::vector<std::string> names = {"identity", "one-base", "pca",
                                                 "wavelet"};
  return names;
}

struct Input {
  std::string name;
  Field field;
};

std::vector<Input> make_inputs() {
  std::vector<Input> inputs;
  for (const auto id :
       {rmp::sim::DatasetId::kHeat3d, rmp::sim::DatasetId::kSedovPres,
        rmp::sim::DatasetId::kYf17Temp, rmp::sim::DatasetId::kFish}) {
    auto dataset = rmp::sim::make_dataset(id, kScale);
    inputs.push_back({dataset.name, std::move(dataset.full)});
  }
  return inputs;
}

/// The paper pair wrapped in timing decorators.
struct TimedCodecs {
  explicit TimedCodecs(const PaperCodecs& codecs)
      : reduced(*codecs.reduced), delta(*codecs.delta) {}
  rmp::core::CodecPair pair() const { return {&reduced, &delta}; }
  double encode_seconds() const {
    return reduced.encode_time.seconds() + delta.encode_time.seconds();
  }
  double decode_seconds() const {
    return reduced.decode_time.seconds() + delta.decode_time.seconds();
  }

  TimingCompressor reduced, delta;
};

/// Call times of the four stages of one op, in seconds.
enum Stage { kEncode, kWrite, kRead, kReconstruct, kStages };

struct OpResult {
  bool ok = false;
  std::string failure;  ///< failure kind when !ok
  std::string detail;
  double stage[kStages] = {};
  double encode_side = 0.0;  ///< encode + write + container teardown
  double decode_side = 0.0;  ///< read + reconstruct + teardown
  double wall = 0.0;
  std::uint64_t original_bytes = 0;
  std::uint64_t archive_bytes = 0;
  double psnr = 0.0;
};

/// Totals over a set of ops.
struct Totals {
  std::uint64_t attempted = 0, ok = 0;
  Failures failures;
  double stage[kStages] = {};
  double encode_side = 0.0, decode_side = 0.0, wall = 0.0;
  std::uint64_t ok_original_bytes = 0, ok_archive_bytes = 0;
  double psnr_sum = 0.0;
  std::vector<double> ok_wall_ms;

  void add(const OpResult& op) {
    ++attempted;
    for (int s = 0; s < kStages; ++s) stage[s] += op.stage[s];
    encode_side += op.encode_side;
    decode_side += op.decode_side;
    wall += op.wall;
    if (!op.ok) {
      failures.add(op.failure);
      return;
    }
    ++ok;
    ok_original_bytes += op.original_bytes;
    ok_archive_bytes += op.archive_bytes;
    psnr_sum += op.psnr;
    ok_wall_ms.push_back(op.wall * 1e3);
  }
  double covered() const {
    double sum = 0.0;
    for (double s : stage) sum += s;
    return sum;
  }
};

class ArchiveRunner {
 public:
  ArchiveRunner(const std::vector<Input>& inputs, std::string codec,
                fs::path archive_path)
      : inputs_(inputs),
        codec_(std::move(codec)),
        tolerance_(codec_tolerance(codec_)),
        archive_path_(std::move(archive_path)) {}

  /// One op, never throwing: a typed error or a failed check is charged
  /// to the op.
  OpResult run_op(const Input& input, const std::string& method,
                  const rmp::core::CodecPair& pair) const {
    OpResult op;
    op.original_bytes = input.field.size() * sizeof(double);
    const auto start = Clock::now();
    auto last = start;
    int stage = kEncode;
    const auto lap = [&] {
      const auto now = Clock::now();
      op.stage[stage++] += seconds_between(last, now);
      last = now;
    };
    std::optional<Clock::time_point> decode_start;
    std::optional<Field> decoded;
    try {
      {
        const auto preconditioner = rmp::core::make_preconditioner(method);
        auto container = preconditioner->encode(input.field, pair);
        lap();
        rmp::io::SerializeOptions options;
        options.with_parity = true;
        rmp::io::write_container(archive_path_, container, options);
        lap();
      }
      decode_start = last = Clock::now();
      {
        const auto container = rmp::io::read_container(archive_path_);
        lap();
        decoded = rmp::core::reconstruct(container, pair);
        lap();
      }
    } catch (...) {
      op.failure = classify_current_exception();
      op.detail = current_exception_message();
      if (stage < kStages) lap();
    }
    const auto end = Clock::now();
    op.wall = seconds_between(start, end);
    op.encode_side = seconds_between(start, decode_start.value_or(end));
    op.decode_side = decode_start ? seconds_between(*decode_start, end) : 0.0;
    if (!op.failure.empty()) return op;

    op.detail = check_field(input.field, *decoded, tolerance_);
    if (!op.detail.empty()) {
      op.failure = "check";
      return op;
    }
    op.ok = true;
    op.archive_bytes = fs::file_size(archive_path_);
    op.psnr = rmp::stats::psnr(input.field.flat(), decoded->flat());
    return op;
  }

  /// Every (field, method) op once, in an order drawn from `rng`.
  Totals run_round(std::mt19937_64& rng, const rmp::core::CodecPair& pair) {
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      for (std::size_t m = 0; m < methods().size(); ++m) order.push_back({i, m});
    std::shuffle(order.begin(), order.end(), rng);
    Totals totals;
    for (const auto& [i, m] : order) {
      const auto op = run_op(inputs_[i], methods()[m], pair);
      if (!op.ok && reported_.insert(inputs_[i].name + "/" + methods()[m]).second)
        std::fprintf(stderr, "perfbench: %s %s/%s failed: %s: %s\n",
                     codec_.c_str(), inputs_[i].name.c_str(),
                     methods()[m].c_str(), op.failure.c_str(),
                     op.detail.c_str());
      totals.add(op);
    }
    return totals;
  }

 private:
  const std::vector<Input>& inputs_;
  std::string codec_;
  double tolerance_;
  fs::path archive_path_;
  std::set<std::string> reported_;
};

void merge(Totals& into, const Totals& from) {
  into.attempted += from.attempted;
  into.ok += from.ok;
  into.failures.merge(from.failures);
  for (int s = 0; s < kStages; ++s) into.stage[s] += from.stage[s];
  into.encode_side += from.encode_side;
  into.decode_side += from.decode_side;
  into.wall += from.wall;
  into.ok_original_bytes += from.ok_original_bytes;
  into.ok_archive_bytes += from.ok_archive_bytes;
  into.psnr_sum += from.psnr_sum;
  into.ok_wall_ms.insert(into.ok_wall_ms.end(), from.ok_wall_ms.begin(),
                         from.ok_wall_ms.end());
}

/// Timing decorators for every layer of a traced pass, and its ops.
struct Tracer {
  explicit Tracer(const PaperCodecs& paper) : codecs(paper) {}

  /// One round with the codec decorators in the CodecPair and the timing
  /// FileOps installed.
  void round(ArchiveRunner& runner, std::mt19937_64& rng) {
    const ScopedFileOps installed(file_ops);
    merge(ops, runner.run_round(rng, codecs.pair()));
  }
  double core_encode_self() const {
    return ops.stage[kEncode] - codecs.encode_seconds();
  }
  double core_decode_self() const {
    return ops.stage[kReconstruct] - codecs.decode_seconds();
  }

  TimedCodecs codecs;
  TimingFileOps file_ops{rmp::io::file_ops()};
  Totals ops;
};

void add_ops(RunResult& result, const Totals& totals) {
  result.attempted += totals.attempted;
  result.failures.merge(totals.failures);
}

}  // namespace

RunResult run_archive(const Options& options, const std::string& codec,
                      Environment& env) {
  RunResult result;
  std::mt19937_64 rng(options.seed);
  const fs::path archive_path = fs::path(options.work_dir) / "op.rmp";
  const PaperCodecs codecs(codec);

  // Set-up: generate the four fields and warm up every method once on
  // Fish (pool threads, allocator, page cache).  Repeated; median kept.
  std::vector<Input> inputs;
  const double setup_s = median_setup_seconds(
      options.trace ? 1 : kSetupRepeats, [&] {
        inputs = make_inputs();
        ArchiveRunner warm(inputs, codec, archive_path);
        for (const auto& method : methods())
          (void)warm.run_op(inputs.back(), method, codecs.pair());
      },
      [&] { inputs.clear(); });
  for (const auto& input : inputs)
    env.field_bytes = std::max<std::uint64_t>(env.field_bytes,
                                              input.field.size() * 8);
  ArchiveRunner runner(inputs, codec, archive_path);

  if (!options.trace) {
    Totals totals;
    int rounds = 0;
    const auto start = Clock::now();
    do {
      merge(totals, runner.run_round(rng, codecs.pair()));
      ++rounds;
    } while (seconds_between(start, Clock::now()) < options.seconds);
    const double elapsed = seconds_between(start, Clock::now());
    add_ops(result, totals);
    const double mb = static_cast<double>(totals.ok_original_bytes) / 1e6;
    result.metric("encode_mbps", ratio_or_zero(mb, totals.encode_side), "MB/s");
    result.metric("decode_mbps", ratio_or_zero(mb, totals.decode_side), "MB/s");
    result.metric("ratio",
                  ratio_or_zero(static_cast<double>(totals.ok_original_bytes),
                                static_cast<double>(totals.ok_archive_bytes)),
                  "x");
    result.metric("psnr_db", ratio_or_zero(totals.psnr_sum,
                                           static_cast<double>(totals.ok)),
                  "dB");
    result.metric("success_rate",
                  ratio_or_zero(static_cast<double>(totals.ok),
                                static_cast<double>(totals.attempted)),
                  "1");
    result.metric("op_tail_ms", tail_quantile(totals.ok_wall_ms), "ms");
    result.metric("ops_per_s",
                  ratio_or_zero(static_cast<double>(totals.ok), elapsed), "1/s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("setup_s", setup_s, "s");
    result.note("rounds", rounds);
    result.note("latency_samples", static_cast<double>(totals.ok_wall_ms.size()));
    result.note("tail_quantile", tail_level(totals.ok_wall_ms.size()));
    return result;
  }

  // Traced run: untraced and traced rounds alternate on the full pool
  // (their difference is the tracing overhead), then the same number of
  // traced rounds on a 1-thread pool for the speedup baseline.
  Totals untraced;
  Tracer traced(codecs), single(codecs);
  for (int r = 0; r < kTracedRounds; ++r) {
    // Alternate which goes first, so drift does not read as overhead.
    if (r % 2 == 0) merge(untraced, runner.run_round(rng, codecs.pair()));
    traced.round(runner, rng);
    if (r % 2 == 1) merge(untraced, runner.run_round(rng, codecs.pair()));
  }
  {
    rmp::parallel::ThreadPool one(1);
    const rmp::parallel::ScopedPoolOverride override_pool(one);
    for (int r = 0; r < kTracedRounds; ++r) single.round(runner, rng);
  }
  add_ops(result, untraced);
  add_ops(result, traced.ops);
  add_ops(result, single.ops);

  const Totals& t = traced.ops;
  const TimedCodecs& c = traced.codecs;
  const TimingFileOps& f = traced.file_ops;
  const double unattributed = t.wall - t.covered();
  result.metric("core.encode_self_s", traced.core_encode_self(), "s");
  result.metric("core.decode_self_s", traced.core_decode_self(), "s");
  result.metric("compress.encode_s", c.encode_seconds(), "s");
  result.metric("compress.decode_s", c.decode_seconds(), "s");
  result.metric("compress.in_bytes",
                static_cast<double>(c.reduced.in_bytes + c.delta.in_bytes), "B");
  result.metric("compress.out_bytes",
                static_cast<double>(c.reduced.out_bytes + c.delta.out_bytes),
                "B");
  // Only io::write_container goes through FileOps on this path.
  result.metric("io.write_self_s", t.stage[kWrite] - f.total_seconds(), "s");
  result.metric("io.write_sys_s", f.write_sys.seconds(), "s");
  result.metric("io.fsync_s", f.fsync_time.seconds(), "s");
  result.metric("io.fsyncs", static_cast<double>(f.fsyncs), "count");
  result.metric("io.bytes_written", static_cast<double>(f.bytes_written), "B");
  result.metric("io.read_s", t.stage[kRead], "s");
  result.metric("io.op_errors", static_cast<double>(f.errors), "count");
  result.metric("unattributed_s", unattributed, "s");
  result.metric("unattributed_share", ratio_or_zero(unattributed, t.wall), "1");
  result.metric("trace_overhead_share",
                ratio_or_zero(t.wall - untraced.wall, untraced.wall), "1");
  result.metric("error_rate",
                ratio_or_zero(static_cast<double>(t.failures.total()),
                              static_cast<double>(t.attempted)),
                "1");
  result.metric("core.encode_speedup",
                ratio_or_zero(single.core_encode_self(),
                              traced.core_encode_self()),
                "x");
  result.metric("compress.encode_speedup",
                ratio_or_zero(single.codecs.encode_seconds(), c.encode_seconds()),
                "x");
  result.metric("compress.decode_speedup",
                ratio_or_zero(single.codecs.decode_seconds(), c.decode_seconds()),
                "x");
  result.note("traced_ops", static_cast<double>(t.attempted));
  result.note("single_thread_ops", static_cast<double>(single.ops.attempted));
  result.note("untraced_wall_s", untraced.wall);
  result.note("traced_wall_s", t.wall);
  return result;
}

}  // namespace perfbench
