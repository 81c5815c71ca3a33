#include "core/guard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "compress/lossless.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "obs/obs.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Mean of the finite axis neighbors of (i, j, k); nullopt when every
// neighbor is nonfinite (or out of range).
std::optional<double> neighbor_mean(const sim::Field& field, std::size_t i,
                                    std::size_t j, std::size_t k) {
  double sum = 0.0;
  std::size_t count = 0;
  auto consider = [&](std::size_t x, std::size_t y, std::size_t z) {
    const double v = field.at(x, y, z);
    if (std::isfinite(v)) {
      sum += v;
      ++count;
    }
  };
  if (i > 0) consider(i - 1, j, k);
  if (i + 1 < field.nx()) consider(i + 1, j, k);
  if (j > 0) consider(i, j - 1, k);
  if (j + 1 < field.ny()) consider(i, j + 1, k);
  if (k > 0) consider(i, j, k - 1);
  if (k + 1 < field.nz()) consider(i, j, k + 1);
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

bool env_inject_is(const char* what) {
  const char* inject = std::getenv("RMP_GUARD_INJECT");
  return inject != nullptr && std::strcmp(inject, what) == 0;
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Audit

DataAudit audit_field(const sim::Field& field) {
  DataAudit audit;
  audit.total = field.size();
  audit.degenerate_shape = field.size() < 2;

  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (double v : field.flat()) {
    switch (std::fpclassify(v)) {
      case FP_NAN:
        ++audit.nans;
        continue;
      case FP_INFINITE:
        ++(v > 0.0 ? audit.pos_infs : audit.neg_infs);
        continue;
      case FP_SUBNORMAL:
        ++audit.denormals;
        break;
      default:
        break;
    }
    ++audit.finite;
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (audit.finite > 0) {
    audit.finite_min = lo;
    audit.finite_max = hi;
    audit.finite_mean = sum / static_cast<double>(audit.finite);
    audit.constant_field = lo == hi;
  }
  return audit;
}

// ---------------------------------------------------------------------------
// Nonfinite masking

NanMask extract_nonfinite(sim::Field& field) {
  NanMask mask;
  // First pass: record payloads (fill values must not contaminate the
  // neighbor means computed below, so nothing is replaced yet).
  for (std::size_t n = 0; n < field.size(); ++n) {
    const double v = field.flat()[n];
    if (!std::isfinite(v)) {
      mask.indices.push_back(n);
      mask.bits.push_back(double_bits(v));
    }
  }
  if (mask.empty()) return mask;

  double finite_sum = 0.0;
  std::size_t finite_count = 0;
  for (double v : field.flat()) {
    if (std::isfinite(v)) {
      finite_sum += v;
      ++finite_count;
    }
  }
  const double global_fill =
      finite_count > 0 ? finite_sum / static_cast<double>(finite_count) : 0.0;

  std::vector<double> fills(mask.size());
  for (std::size_t m = 0; m < mask.size(); ++m) {
    const std::size_t n = mask.indices[m];
    const std::size_t i = n / (field.ny() * field.nz());
    const std::size_t j = (n / field.nz()) % field.ny();
    const std::size_t k = n % field.nz();
    fills[m] = neighbor_mean(field, i, j, k).value_or(global_fill);
  }
  for (std::size_t m = 0; m < mask.size(); ++m) {
    field.flat()[mask.indices[m]] = fills[m];
  }
  return mask;
}

void apply_nanmask(sim::Field& field, const NanMask& mask) {
  if (mask.indices.size() != mask.bits.size()) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "nanmask: index/payload count mismatch",
                             kNanMaskSection);
  }
  for (std::size_t m = 0; m < mask.size(); ++m) {
    if (mask.indices[m] >= field.size()) {
      throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                               "nanmask: cell index out of range",
                               kNanMaskSection);
    }
    field.flat()[mask.indices[m]] = bits_double(mask.bits[m]);
  }
}

std::vector<std::uint8_t> nanmask_to_bytes(const NanMask& mask) {
  std::vector<std::uint64_t> words;
  words.reserve(1 + 2 * mask.size());
  words.push_back(mask.size());
  words.insert(words.end(), mask.indices.begin(), mask.indices.end());
  words.insert(words.end(), mask.bits.begin(), mask.bits.end());
  return compress::lossless_compress(u64s_to_bytes(words));
}

NanMask nanmask_from_bytes(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> words;
  try {
    words = bytes_to_u64s(compress::lossless_decompress(bytes));
  } catch (const std::exception& e) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string("nanmask: undecodable payload: ") +
                                 e.what(),
                             kNanMaskSection);
  }
  if (words.empty() || words[0] != (words.size() - 1) / 2 ||
      (words.size() - 1) % 2 != 0) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "nanmask: cell count disagrees with payload size",
                             kNanMaskSection);
  }
  NanMask mask;
  const std::size_t count = static_cast<std::size_t>(words[0]);
  mask.indices.assign(words.begin() + 1, words.begin() + 1 + count);
  mask.bits.assign(words.begin() + 1 + count, words.end());
  return mask;
}

// ---------------------------------------------------------------------------
// Provenance (text key=value lines; tiny, human-greppable, stored raw)

std::vector<std::uint8_t> provenance_to_bytes(const GuardProvenance& prov) {
  std::string text;
  text += "requested=" + prov.requested + "\n";
  text += "actual=" + prov.actual + "\n";
  text += "masked=" + std::to_string(prov.masked_cells) + "\n";
  text += "bound_checked=" + std::string(prov.bound_checked ? "1" : "0") + "\n";
  if (prov.bound_checked) {
    text += "bound=" + format_double(prov.bound) + "\n";
    text += "bound_satisfied=" +
            std::string(prov.bound_satisfied ? "1" : "0") + "\n";
  }
  text += "max_error=" + format_double(prov.verified_max_error) + "\n";
  for (const auto& demotion : prov.demotions) {
    text += "demotion=" + demotion.from + "|" + demotion.reason + "\n";
  }
  return {text.begin(), text.end()};
}

GuardProvenance provenance_from_bytes(std::span<const std::uint8_t> bytes) {
  GuardProvenance prov;
  std::string text(bytes.begin(), bytes.end());
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;  // tolerate unknown/garbled lines
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "requested") {
      prov.requested = value;
    } else if (key == "actual") {
      prov.actual = value;
    } else if (key == "masked") {
      prov.masked_cells = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "bound_checked") {
      prov.bound_checked = value == "1";
    } else if (key == "bound") {
      prov.bound = std::strtod(value.c_str(), nullptr);
    } else if (key == "bound_satisfied") {
      prov.bound_satisfied = value == "1";
    } else if (key == "max_error") {
      prov.verified_max_error = std::strtod(value.c_str(), nullptr);
    } else if (key == "demotion") {
      const std::size_t bar = value.find('|');
      if (bar == std::string::npos) {
        prov.demotions.push_back({value, ""});
      } else {
        prov.demotions.push_back(
            {value.substr(0, bar), value.substr(bar + 1)});
      }
    }
  }
  return prov;
}

std::string format_provenance(const GuardProvenance& prov) {
  std::string out;
  out += "guard: requested " + prov.requested + ", ran " + prov.actual + "\n";
  if (prov.masked_cells > 0) {
    out += "guard: " + std::to_string(prov.masked_cells) +
           " nonfinite cell(s) masked (restored bit-exact on decode)\n";
  }
  if (prov.bound_checked) {
    out += "guard: bound " + format_double(prov.bound) +
           (prov.bound_satisfied ? " SATISFIED" : " NOT satisfied") +
           ", verified max error " + format_double(prov.verified_max_error) +
           "\n";
  } else {
    out += "guard: verified max error " +
           format_double(prov.verified_max_error) + " (no bound requested)\n";
  }
  for (const auto& demotion : prov.demotions) {
    out += "guard: demoted from " + demotion.from + ": " + demotion.reason +
           "\n";
  }
  return out;
}

std::optional<GuardProvenance> read_provenance(const io::Container& container) {
  const io::Section* section = container.find(kGuardSection);
  if (section == nullptr) return std::nullopt;
  return provenance_from_bytes(section->bytes);
}

// ---------------------------------------------------------------------------
// Guarded encode

GuardedEncodeResult guarded_encode(const sim::Field& field,
                                   const CodecPair& codecs,
                                   const GuardOptions& options) {
  if (field.size() == 0) {
    throw PreconditionError(PrecondErrc::kDegenerateInput,
                            "guarded_encode: empty field");
  }
  if (codecs.reduced == nullptr || codecs.delta == nullptr) {
    throw std::invalid_argument("guarded_encode: both codecs are required");
  }
  const auto factory = options.factory
                           ? options.factory
                           : [](const std::string& name) {
                               return make_preconditioner(name);
                             };

  GuardedEncodeResult result;
  {
    const obs::ScopedSpan span("audit");
    result.audit = audit_field(field);
  }
  result.provenance.requested = options.method;

  // Mask: the chain below only ever sees finite data.
  sim::Field masked = field;
  NanMask mask;
  if (options.mask_nonfinite && result.audit.nonfinite() > 0) {
    const obs::ScopedSpan span("mask");
    mask = extract_nonfinite(masked);
  }
  result.provenance.masked_cells = mask.size();
  if (!mask.empty()) obs::count("guard.masked_cells", mask.size());

  // Build the chain: requested method, then the fallbacks, deduplicated,
  // with the lossless terminal always present.
  std::vector<std::string> chain{options.method};
  for (const auto& name : options.fallbacks) {
    if (std::find(chain.begin(), chain.end(), name) == chain.end()) {
      chain.push_back(name);
    }
  }
  if (chain.back() != "raw") chain.push_back("raw");

  // Audit-driven pre-demotion: reduced models need variance to find and at
  // least a handful of cells to factor; route degenerate data straight to
  // the cheap end of the chain.
  std::size_t first = 0;
  if (options.method != "identity" && options.method != "raw") {
    std::string reason;
    if (result.audit.degenerate_shape) {
      reason = "audit: degenerate shape (" +
               std::to_string(result.audit.total) + " cell(s))";
    } else if (result.audit.all_nonfinite()) {
      reason = "audit: no finite cells";
    } else if (result.audit.constant_field) {
      reason = "audit: constant field (zero variance)";
    }
    if (!reason.empty()) {
      while (first < chain.size() - 1 && chain[first] != "identity" &&
             chain[first] != "raw") {
        result.provenance.demotions.push_back({chain[first], reason});
        ++first;
      }
    }
  }

  // Resolve every chain entry upfront: an unknown name is a caller bug
  // and throws here, before any data-shaped handling starts.
  std::vector<std::unique_ptr<Preconditioner>> preconditioners;
  preconditioners.reserve(chain.size());
  for (const auto& name : chain) preconditioners.push_back(factory(name));

  for (std::size_t c = first; c < chain.size(); ++c) {
    const std::string& name = chain[c];
    const bool is_first_attempt = c == first;
    const bool terminal = c + 1 == chain.size();
    try {
      if (is_first_attempt && env_inject_is("eigen")) {
        throw PreconditionError(
            PrecondErrc::kEigenNonConvergence,
            "injected via RMP_GUARD_INJECT for fault testing");
      }
      if (is_first_attempt && env_inject_is("svd")) {
        throw PreconditionError(
            PrecondErrc::kSvdNonConvergence,
            "injected via RMP_GUARD_INJECT for fault testing");
      }
      // The candidate's own "precondition/<method>" span times the
      // encode; a wrapper span here would repeat that segment.
      EncodeStats stats;
      io::Container container =
          preconditioners[c]->encode(masked, codecs, &stats);

      // Mandatory post-encode verification: decode back and measure the
      // pointwise error on every cell that was finite in the original.
      const obs::ScopedSpan verify_span("verify");
      const sim::Field decoded = preconditioners[c]->decode(container, codecs);
      double max_error =
          stats::finite_max_abs_error(field.flat(), decoded.flat());
      if (is_first_attempt && env_inject_is("bound")) {
        max_error = std::numeric_limits<double>::infinity();
      }
      const bool bound_ok =
          !options.error_bound.has_value() || max_error <= *options.error_bound;
      if (!bound_ok && !terminal) {
        obs::count("guard.bound_failures");
        obs::count("guard.demotions");
        result.provenance.demotions.push_back(
            {name, "bound verification failed: max error " +
                       format_double(max_error) + " > bound " +
                       format_double(*options.error_bound)});
        continue;
      }

      result.container = std::move(container);
      result.stats = stats;
      result.provenance.actual = name;
      result.provenance.verified_max_error = max_error;
      result.provenance.bound_checked = options.error_bound.has_value();
      result.provenance.bound = options.error_bound.value_or(0.0);
      result.provenance.bound_satisfied = bound_ok;
      break;
    } catch (const std::exception& e) {
      // Data-shaped failure (typed non-convergence, shape rejection,
      // codec/section trouble): record and demote.  The terminal `raw`
      // stage is lossless and shape-agnostic; if even it throws, that is
      // a real bug and must surface.
      if (terminal) throw;
      result.provenance.demotions.push_back({name, e.what()});
      obs::count("guard.demotions");
    }
  }

  if (!mask.empty()) {
    result.container.add(kNanMaskSection, nanmask_to_bytes(mask));
  }
  result.container.add(kGuardSection,
                       provenance_to_bytes(result.provenance));
  // Refresh the totals so the advisory sections are accounted for.
  const std::size_t reduced_bytes = result.stats.reduced_bytes;
  const std::size_t delta_bytes = result.stats.delta_bytes;
  fill_stats(result.container, field.size(), &result.stats);
  result.stats.reduced_bytes = reduced_bytes;
  result.stats.delta_bytes = delta_bytes;
  return result;
}

sim::Field guarded_decode(const io::Container& container,
                          const CodecPair& codecs,
                          const sim::Field* external_reduced) {
  return reconstruct(container, codecs, external_reduced);
}

}  // namespace rmp::core
