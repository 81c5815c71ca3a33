// ext_seek_decode -- sequence-archive decode bench (DESIGN.md §12),
// emitted as machine-readable JSON (schema rmp-bench-seek-v1).
//
// Builds a sequence archive (CRC'd trailer index) of N encoded steps,
// then measures
//   1. whole-sequence decode (read_step + reconstruct per step, in
//      order) across a thread sweep of the pool the codec and model
//      stages run on (ScopedPoolOverride), with the decoded fields
//      verified identical to the single-thread run, and
//   2. random access to one step, reporting the bytes actually read --
//      the O(step K) seek property the trailer index buys.
//
//   ext_seek_decode [scale] [out.json]
//
// Default scale comes from RMP_BENCH_SCALE or 0.4; default output is
// BENCH_seek_decode.json in the working directory.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "io/sequence_file.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace rmp;

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void append_number(std::string& out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", finite_or_zero(v));
  out += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv, 0.4);
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_seek_decode.json";
  constexpr std::size_t kSteps = 12;

  obs::set_enabled(true);
  bench::print_header("ext_seek_decode",
                      "sequence archive: whole-sequence decode sweep");

  const auto dataset = sim::make_dataset(sim::DatasetId::kHeat3d, scale);
  bench::SzCodecs sz;
  const core::CodecPair pair = sz.pair();
  const auto preconditioner = core::make_preconditioner("pca");

  // Encode kSteps drifted copies of the field into a sequence archive.
  const std::filesystem::path archive =
      std::filesystem::temp_directory_path() / "ext_seek_decode.rmps";
  std::filesystem::remove(archive);
  std::filesystem::remove(io::sequence_journal_path(archive));
  std::size_t original_bytes_per_step = 0;
  {
    io::SequenceWriter writer(archive);
    for (std::size_t step = 0; step < kSteps; ++step) {
      std::vector<double> drifted(dataset.full.flat().begin(),
                                  dataset.full.flat().end());
      const double factor = 1.0 + 0.01 * static_cast<double>(step);
      for (double& v : drifted) v *= factor;
      original_bytes_per_step = drifted.size() * sizeof(double);
      const sim::Field field = sim::Field::from_data(
          dataset.full.nx(), dataset.full.ny(), dataset.full.nz(),
          std::move(drifted));
      writer.append(preconditioner->encode(field, pair));
    }
    writer.finish();
  }
  const double total_bytes =
      static_cast<double>(original_bytes_per_step * kSteps);

  // Thread sweep: decode all steps in order, verifying each run
  // reproduces the single-thread fields exactly.
  struct SweepRun {
    std::size_t threads = 0;
    double seconds = 0;
  };
  std::vector<SweepRun> runs;
  std::vector<std::vector<double>> reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    parallel::ScopedPoolOverride override_pool(pool);
    const io::SequenceReader reader(archive);

    const auto start = obs::now();
    std::vector<std::vector<double>> fields(reader.step_count());
    for (std::size_t step = 0; step < fields.size(); ++step) {
      fields[step] = core::reconstruct(reader.read_step(step), pair).storage();
    }
    const double seconds = obs::seconds_since(start);

    if (reference.empty()) {
      reference = std::move(fields);
    } else if (fields != reference) {
      std::fprintf(stderr,
                   "ext_seek_decode: %zu-thread decode diverged from the "
                   "single-thread result\n",
                   threads);
      return 1;
    }
    runs.push_back({threads, seconds});
    std::printf("threads %2zu  decode %8.4fs  %8.2f MB/s\n", threads, seconds,
                total_bytes / seconds / 1e6);
  }

  // Random access: one step, counting the bytes the reader touches.
  const std::size_t probe_step = kSteps / 2;
  const io::SequenceReader reader(archive);
  const std::uint64_t bytes_before =
      obs::Registry::global().counter_value("io.sequence.bytes_read");
  const auto seek_start = obs::now();
  const io::Container step_container = reader.read_step(probe_step);
  const sim::Field step_field = core::reconstruct(step_container, pair);
  const double seek_seconds = obs::seconds_since(seek_start);
  const std::uint64_t bytes_read =
      obs::Registry::global().counter_value("io.sequence.bytes_read") -
      bytes_before;
  std::printf("step %zu alone: %8.4fs, %llu archive bytes read "
              "(%.1f%% of the file)\n",
              probe_step, seek_seconds,
              static_cast<unsigned long long>(bytes_read),
              100.0 * static_cast<double>(bytes_read) /
                  static_cast<double>(std::filesystem::file_size(archive)));
  if (step_field.storage() != reference[probe_step]) {
    std::fprintf(stderr,
                 "ext_seek_decode: seek decode diverged from the sweep\n");
    return 1;
  }

  std::string json = "{\n  \"schema\": \"rmp-bench-seek-v1\",\n  \"scale\": ";
  append_number(json, scale);
  json += ",\n  \"steps\": ";
  append_number(json, static_cast<double>(kSteps));
  json += ",\n  \"step_bytes\": ";
  append_number(json, static_cast<double>(original_bytes_per_step));
  json += ",\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    json += "    {\"threads\": ";
    append_number(json, static_cast<double>(runs[r].threads));
    json += ", \"seconds\": ";
    append_number(json, runs[r].seconds);
    json += ", \"throughput_bytes_per_second\": ";
    append_number(json, runs[r].seconds > 0 ? total_bytes / runs[r].seconds
                                            : 0.0);
    json += "}";
    json += r + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"single_step\": {\"step\": ";
  append_number(json, static_cast<double>(probe_step));
  json += ", \"seconds\": ";
  append_number(json, seek_seconds);
  json += ", \"bytes_read\": ";
  append_number(json, static_cast<double>(bytes_read));
  json += "},\n  \"obs\": ";
  json += obs::Registry::global().to_json();
  json += "\n}\n";

  std::FILE* file = std::fopen(out_path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "ext_seek_decode: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::filesystem::remove(archive);
  std::printf("wrote %s (%zu sweep runs)\n", out_path.c_str(), runs.size());

  const auto validation = obs::validate_stats_json(json);
  if (!validation.ok) {
    std::fprintf(stderr, "ext_seek_decode: self-validation failed: %s\n",
                 validation.error.c_str());
    return 1;
  }
  return 0;
}
