// service-mixed: an in-process rmpd (net::Server) on loopback with a store
// directory, driven closed-loop by 4 client connections.  Requests carry
// 48^3 Heat3d snapshots (0.88 MB) with the pca+sz default; each client
// cycles through
//   encode-and-store   StoreMode::kFile (durable publish: fsync + rename)
//   sequence append    StoreMode::kSequence with a token (journal fsync
//                      plus intent-log fsync)
//   decode             of an archive the client stored earlier, by store
//                      name (the server's read cache)
// in equal shares, whole cycles only.  A short 1-client phase of inline
// encodes follows.  The seed picks the snapshot each request carries and
// which stored archive a decode asks for.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sim/datasets.hpp"
#include "stats/metrics.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using rmp::sim::Field;

constexpr int kClients = 4;
/// Scale 1.0 Heat3d is 48^3 doubles.
constexpr double kScale = 1.0;
constexpr std::size_t kSnapshots = 12;
/// Share of --seconds given to the 4-client phase of an untraced run.
constexpr double kLoadShare = 0.85;
/// Cycles per client in each phase of a traced run (fixed, so its counts
/// are exact).
constexpr int kTracedCycles = 30;
constexpr int kOneClientRequests = 40;
/// Sequence steps per client decoded after the drain to check appends.
constexpr std::size_t kVerifiedSteps = 8;
constexpr int kBusyRetries = 5;

enum Kind { kStore, kAppend, kDecode, kKinds };

/// What one client saw.
struct ClientLog {
  std::uint64_t attempted = 0, ok = 0;
  Failures failures;
  std::vector<double> ok_ms[kKinds];
  std::vector<double> all_ms;  ///< every attempted request
  double encode_side_s = 0.0, decode_side_s = 0.0;
  std::uint64_t encode_ok_bytes = 0, decode_ok_bytes = 0;
  std::uint64_t stored_original = 0, stored_bytes = 0;
  double psnr_sum = 0.0;
  std::uint64_t busy = 0, retries = 0;
  std::string sequence;
  std::vector<std::size_t> appended;  ///< snapshot index of each step

  void fail(const std::string& kind) {
    failures.add(kind);
    ++attempted;
  }
  void merge(const ClientLog& other) {
    attempted += other.attempted;
    ok += other.ok;
    failures.merge(other.failures);
    for (int k = 0; k < kKinds; ++k)
      ok_ms[k].insert(ok_ms[k].end(), other.ok_ms[k].begin(),
                      other.ok_ms[k].end());
    all_ms.insert(all_ms.end(), other.all_ms.begin(), other.all_ms.end());
    encode_side_s += other.encode_side_s;
    decode_side_s += other.decode_side_s;
    encode_ok_bytes += other.encode_ok_bytes;
    decode_ok_bytes += other.decode_ok_bytes;
    stored_original += other.stored_original;
    stored_bytes += other.stored_bytes;
    psnr_sum += other.psnr_sum;
    busy += other.busy;
    retries += other.retries;
  }
  std::vector<double> ok_all_ms() const {
    std::vector<double> all;
    for (const auto& kind : ok_ms) all.insert(all.end(), kind.begin(), kind.end());
    return all;
  }
};

/// Retries a BUSY rejection after the server's hint, counting both.
template <class Call>
auto with_busy_retry(ClientLog& log, Call&& call) {
  for (int attempt = 0;; ++attempt) {
    try {
      return call();
    } catch (const rmp::net::RemoteError& error) {
      if (error.status() != rmp::net::Status::kBusy || attempt >= kBusyRetries)
        throw;
      ++log.busy;
      ++log.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::uint32_t>(error.retry_after_ms(), 5)));
    }
  }
}

/// One server over its own store directory, plus the inputs.
class ServiceRig {
 public:
  ServiceRig(const std::vector<Field>& snapshots, const fs::path& store)
      : snapshots_(snapshots), store_(store) {
    fs::remove_all(store_);
    fs::create_directories(store_);
    rmp::net::ServerOptions options;
    options.output_dir = store_;
    server_ = std::make_unique<rmp::net::Server>(options);
    server_->start();
  }

  rmp::net::ClientOptions client_options() const {
    rmp::net::ClientOptions options;
    options.port = server_->port();
    options.deadline = std::chrono::seconds(30);
    return options;
  }

  /// Closed loop: each client runs whole cycles until `until` (or exactly
  /// `cycles` when set).  `phase` keeps store names unique.
  std::vector<ClientLog> run_clients(std::uint64_t seed, const std::string& phase,
                                     std::optional<Clock::time_point> until,
                                     int cycles) {
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        run_client(seed * 1000 + static_cast<std::uint64_t>(c),
                   phase + "c" + std::to_string(c), until, cycles, logs[c]);
      });
    for (auto& thread : threads) thread.join();
    return logs;
  }

  /// Inline (StoreMode::kReturn) encodes from one client; client-observed
  /// latencies of the requests that decoded within tolerance.
  std::vector<double> run_one_client(std::uint64_t seed, int requests,
                                     ClientLog& log) {
    std::mt19937_64 rng(seed);
    std::vector<double> ms;
    try {
      rmp::net::Client client(client_options());
      const PaperCodecs codecs("sz");
      for (int r = 0; r < requests; ++r) {
        const std::size_t snap = rng() % snapshots_.size();
        const rmp::net::EncodeRequest request = make_encode(snap);
        const auto start = Clock::now();
        try {
          const auto response = with_busy_retry(
              log, [&] { return client.encode(request); });
          const double elapsed = seconds_between(start, Clock::now()) * 1e3;
          const auto container = rmp::io::deserialize(response.container);
          const auto field = rmp::core::reconstruct(container, codecs.pair());
          if (!check_field(snapshots_[snap], field, codec_tolerance("sz"))
                   .empty()) {
            log.fail("check");
            continue;
          }
          ++log.attempted;
          ++log.ok;
          ms.push_back(elapsed);
        } catch (...) {
          log.fail(classify_current_exception());
        }
      }
    } catch (...) {
      log.fail(classify_current_exception());
    }
    return ms;
  }

  rmp::net::StatsResponse server_stats() {
    rmp::net::Client client(client_options());
    return client.stats();
  }

  /// Drains the server (publishing sequences), then checks that every
  /// client's sequence holds one step per acknowledged append and that a
  /// seed-chosen sample of steps decodes within tolerance.  A failed
  /// check is charged to the client's log.
  void drain_and_verify(std::vector<ClientLog>& logs, std::uint64_t seed) {
    server_->drain();
    std::mt19937_64 rng(seed);
    const PaperCodecs codecs("sz");
    for (auto& log : logs) {
      if (log.appended.empty()) continue;
      try {
        const rmp::io::SequenceReader reader(store_ / log.sequence);
        if (reader.step_count() != log.appended.size()) {
          std::fprintf(stderr, "perfbench: %s has %zu steps, %zu acknowledged\n",
                       log.sequence.c_str(), reader.step_count(),
                       log.appended.size());
          log.failures.add("check");
          --log.ok;
          continue;
        }
        for (std::size_t s = 0; s < kVerifiedSteps; ++s) {
          const std::size_t step = rng() % log.appended.size();
          const auto field =
              rmp::core::reconstruct(reader.read_step(step), codecs.pair());
          if (!check_field(snapshots_[log.appended[step]], field,
                           codec_tolerance("sz"))
                   .empty()) {
            log.failures.add("check");
            --log.ok;
          }
        }
      } catch (...) {
        log.failures.add(classify_current_exception());
        --log.ok;
      }
    }
  }

 private:
  rmp::net::EncodeRequest make_encode(std::size_t snap) const {
    const Field& field = snapshots_[snap];
    rmp::net::EncodeRequest request;
    request.method = "pca";
    request.codec = "sz";
    request.nx = field.nx();
    request.ny = field.ny();
    request.nz = field.nz();
    request.data = field.storage();
    return request;
  }

  void run_client(std::uint64_t seed, const std::string& name,
                  std::optional<Clock::time_point> until, int cycles,
                  ClientLog& log) {
    std::mt19937_64 rng(seed);
    log.sequence = name + ".rmps";
    std::vector<std::pair<std::string, std::size_t>> stored;
    try {
      rmp::net::Client client(client_options());
      for (int cycle = 0;
           until ? Clock::now() < *until : cycle < cycles; ++cycle) {
        for (int kind = 0; kind < kKinds; ++kind)
          request(client, rng, name, cycle, static_cast<Kind>(kind), stored,
                  log);
      }
    } catch (...) {
      log.fail(classify_current_exception());
    }
  }

  /// One request of `kind`, built before the clock starts; its latency is
  /// the client call alone.  Typed errors and failed checks are charged
  /// to the log, never thrown.
  void request(rmp::net::Client& client, std::mt19937_64& rng,
               const std::string& name, int cycle, Kind kind,
               std::vector<std::pair<std::string, std::size_t>>& stored,
               ClientLog& log) {
    rmp::net::DecodeRequest decode;
    rmp::net::EncodeRequest encode;
    std::size_t snap = 0;
    if (kind == kDecode) {
      if (stored.empty()) {  // every store of this client failed so far
        log.fail("skipped");
        return;
      }
      // One of the client's last few stored archives: some repeat, so
      // the server's per-store read cache is exercised.
      const auto& picked =
          stored[stored.size() - 1 -
                 rng() % std::min<std::size_t>(stored.size(), 4)];
      decode.codec = "sz";
      decode.store_name = picked.first;
      snap = picked.second;
    } else {
      snap = rng() % snapshots_.size();
      encode = make_encode(snap);
      if (kind == kStore) {
        encode.store = rmp::net::StoreMode::kFile;
        encode.store_name = name + "n" + std::to_string(cycle) + ".rmp";
      } else {
        encode.store = rmp::net::StoreMode::kSequence;
        encode.store_name = log.sequence;
        encode.request_token = rmp::net::Client::make_request_token();
      }
    }

    rmp::net::DecodeResponse decoded;
    rmp::net::EncodeResponse encoded;
    std::string failure;
    const auto start = Clock::now();
    try {
      if (kind == kDecode)
        decoded = with_busy_retry(log, [&] { return client.decode(decode); });
      else
        encoded = with_busy_retry(log, [&] { return client.encode(encode); });
    } catch (...) {
      failure = classify_current_exception();
    }
    const double seconds = seconds_between(start, Clock::now());
    (kind == kDecode ? log.decode_side_s : log.encode_side_s) += seconds;
    log.all_ms.push_back(seconds * 1e3);
    if (!failure.empty()) {
      log.fail(failure);
      return;
    }

    if (kind == kDecode) {
      const Field& input = snapshots_[snap];
      if (decoded.data.size() != decoded.nx * decoded.ny * decoded.nz) {
        log.fail("check");
        return;
      }
      const Field field = Field::from_data(decoded.nx, decoded.ny, decoded.nz,
                                           std::move(decoded.data));
      if (!check_field(input, field, codec_tolerance("sz")).empty()) {
        log.fail("check");
        return;
      }
      log.decode_ok_bytes += field.size() * sizeof(double);
      log.psnr_sum += rmp::stats::psnr(input.flat(), field.flat());
    } else {
      if (!encoded.stored || encoded.stored_bytes == 0) {
        log.fail("check");
        return;
      }
      if (kind == kStore)
        stored.emplace_back(encode.store_name, snap);
      else
        log.appended.push_back(snap);
      log.encode_ok_bytes += encoded.original_bytes;
      log.stored_original += encoded.original_bytes;
      log.stored_bytes += encoded.stored_bytes;
    }
    log.ok_ms[kind].push_back(seconds * 1e3);
    ++log.attempted;
    ++log.ok;
  }

  const std::vector<Field>& snapshots_;
  fs::path store_;
  std::unique_ptr<rmp::net::Server> server_;
};

ClientLog merged(const std::vector<ClientLog>& logs) {
  ClientLog all;
  for (const auto& log : logs) all.merge(log);
  return all;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return ratio_or_zero(sum, static_cast<double>(values.size()));
}

void add_ops(RunResult& result, const ClientLog& log) {
  result.attempted += log.attempted;
  result.failures.merge(log.failures);
}

/// In-process encode of the 1-client phase's request: the same model,
/// codec and parity serialization the server runs, with no socket.
std::vector<double> compute_ms(const std::vector<Field>& snapshots,
                               std::uint64_t seed, int requests) {
  std::mt19937_64 rng(seed);
  const PaperCodecs codecs("sz");
  std::vector<double> ms;
  for (int r = 0; r < requests; ++r) {
    const Field& field = snapshots[rng() % snapshots.size()];
    const auto start = Clock::now();
    const auto container = rmp::core::make_preconditioner("pca")->encode(field,
                                                                   codecs.pair());
    rmp::io::SerializeOptions options;
    options.with_parity = true;
    const auto bytes = rmp::io::serialize(container, options);
    ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  return ms;
}

}  // namespace

RunResult run_service(const Options& options, Environment& env) {
  RunResult result;
  const fs::path root = fs::path(options.work_dir);
  std::vector<Field> snapshots;
  std::unique_ptr<ServiceRig> rig;
  std::vector<ClientLog> warm_logs;

  // Set-up: snapshots, a server over a fresh store (startup recovery
  // included) and one cycle per client as warm-up.  Repeated; median kept.
  const double setup_s = median_setup_seconds(
      options.trace ? 1 : kSetupRepeats,
      [&] {
        snapshots = rmp::sim::make_snapshots(rmp::sim::DatasetId::kHeat3d,
                                             kSnapshots, kScale);
        rig = std::make_unique<ServiceRig>(snapshots, root / "store");
        warm_logs = rig->run_clients(options.seed, "w", std::nullopt, 1);
      },
      [&] { rig.reset(); });
  env.field_bytes = snapshots.front().size() * sizeof(double);

  if (!options.trace) {
    const auto start = Clock::now();
    auto logs = rig->run_clients(
        options.seed, "m",
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds * kLoadShare)),
        0);
    const double elapsed = seconds_between(start, Clock::now());
    ClientLog one;
    const auto one_ms =
        rig->run_one_client(options.seed + 7, kOneClientRequests, one);
    rig->drain_and_verify(logs, options.seed + 11);
    const ClientLog all = merged(logs);
    add_ops(result, all);
    add_ops(result, one);

    const auto ok_ms = all.ok_all_ms();
    const double ok_requests = static_cast<double>(ok_ms.size());
    result.metric("encode_mbps",
                  ratio_or_zero(static_cast<double>(all.encode_ok_bytes) / 1e6,
                                all.encode_side_s),
                  "MB/s");
    result.metric("decode_mbps",
                  ratio_or_zero(static_cast<double>(all.decode_ok_bytes) / 1e6,
                                all.decode_side_s),
                  "MB/s");
    result.metric("ratio",
                  ratio_or_zero(static_cast<double>(all.stored_original),
                                static_cast<double>(all.stored_bytes)),
                  "x");
    result.metric("psnr_db",
                  ratio_or_zero(all.psnr_sum,
                                static_cast<double>(all.ok_ms[kDecode].size())),
                  "dB");
    result.metric("success_rate",
                  ratio_or_zero(static_cast<double>(all.ok),
                                static_cast<double>(all.attempted)),
                  "1");
    result.metric("op_tail_ms", tail_quantile(ok_ms), "ms");
    result.metric("ops_per_s", ratio_or_zero(ok_requests, elapsed), "1/s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("setup_s", setup_s, "s");
    result.note("clients", kClients);
    result.note("latency_samples", ok_requests);
    result.note("tail_quantile", tail_level(ok_ms.size()));
    result.note("rpc1_p50_ms", quantile(one_ms, 0.5));
    return result;
  }

  // Traced run: a fixed number of cycles on the warmed-up untraced
  // server, then the same on a second server, warmed up the same way,
  // with a timing FileOps installed for exactly its load phase (server
  // threads write through it).  The difference between the two phases'
  // mean latency is the tracing overhead.
  auto untraced_logs =
      rig->run_clients(options.seed, "u", std::nullopt, kTracedCycles);
  rig->drain_and_verify(untraced_logs, options.seed + 11);
  rig.reset();
  const ClientLog untraced = merged(untraced_logs);

  // Declared before the server so it outlives every server thread.
  TimingFileOps file_ops(rmp::io::file_ops());
  ClientLog traced, one;
  std::vector<double> one_ms;
  rmp::net::StatsResponse before, after;
  {
    ServiceRig traced_rig(snapshots, root / "store-traced");
    (void)traced_rig.run_clients(options.seed, "w", std::nullopt, 1);
    before = traced_rig.server_stats();
    std::vector<ClientLog> logs;
    {
      // Installed while no request is in flight: every response has
      // arrived, and stores and appends answer only once durable.
      const ScopedFileOps installed(file_ops);
      logs = traced_rig.run_clients(options.seed, "t", std::nullopt,
                                    kTracedCycles);
    }
    after = traced_rig.server_stats();
    one_ms = traced_rig.run_one_client(options.seed + 7, kOneClientRequests, one);
    traced_rig.drain_and_verify(logs, options.seed + 11);
    traced = merged(logs);
  }
  add_ops(result, untraced);
  add_ops(result, traced);
  add_ops(result, one);

  const double compute = median(compute_ms(snapshots, options.seed + 7,
                                           kOneClientRequests));
  const double rpc1 = median(one_ms);
  double request_s = 0.0;
  for (double ms : traced.all_ms) request_s += ms / 1e3;
  const double covered = file_ops.total_seconds();
  result.metric("io.write_sys_s", file_ops.write_sys.seconds(), "s");
  result.metric("io.fsync_s", file_ops.fsync_time.seconds(), "s");
  result.metric("io.fsyncs", static_cast<double>(file_ops.fsyncs), "count");
  result.metric("io.bytes_written", static_cast<double>(file_ops.bytes_written),
                "B");
  result.metric("io.read_s", file_ops.read_sys.seconds(), "s");
  result.metric("io.op_errors", static_cast<double>(file_ops.errors), "count");
  result.metric("net.encode_store_ms", median(traced.ok_ms[kStore]), "ms");
  result.metric("net.append_ms", median(traced.ok_ms[kAppend]), "ms");
  result.metric("net.decode_ms", median(traced.ok_ms[kDecode]), "ms");
  result.metric("net.busy_rejections", static_cast<double>(traced.busy), "count");
  result.metric("net.retries", static_cast<double>(traced.retries), "count");
  result.metric("net.server_completed",
                static_cast<double>(after.completed - before.completed), "count");
  result.metric("net.server_failed",
                static_cast<double>(after.failed - before.failed), "count");
  result.metric("net.deadline_missed",
                static_cast<double>(after.deadline_missed - before.deadline_missed),
                "count");
  result.metric("net.rpc_p50_ms", median(traced.ok_all_ms()), "ms");
  result.metric("net.rpc1_p50_ms", rpc1, "ms");
  result.metric("net.compute_ms", compute, "ms");
  result.metric("net.overhead_ms", rpc1 - compute, "ms");
  result.metric("unattributed_s", request_s - covered, "s");
  result.metric("unattributed_share", ratio_or_zero(request_s - covered, request_s),
                "1");
  result.metric("trace_overhead_share",
                ratio_or_zero(mean(traced.all_ms), mean(untraced.all_ms)) - 1.0,
                "1");
  result.metric("error_rate",
                ratio_or_zero(static_cast<double>(traced.failures.total()),
                              static_cast<double>(traced.attempted)),
                "1");
  result.note("traced_requests", static_cast<double>(traced.attempted));
  return result;
}

}  // namespace perfbench
