#include "core/plan_io.hpp"

#include <cstdint>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "telemetry/log.hpp"

namespace ttlg {
namespace {

constexpr const char* kMagic = "ttlg-plan";
// Version 2 appended the integrity checksum record; version-1 files are
// rejected (they carry no corruption protection). Version 3 appended
// the specialization-tier record (core/stride_program.hpp): the tier is
// persisted rather than re-decided so a loaded plan provably executes
// on the same path it was planned (and benchmarked) on. Version 4
// retired the rank-pinned "templated" tier (stored value 2): those
// plans now run at stride_program or affine_bulk, so version-3 files
// describe a tier this library no longer has.
constexpr int kVersion = 4;

/// FNV-1a 64-bit over the serialized payload. Not cryptographic — it
/// guards against truncation, bit flips and partial writes, not
/// adversaries.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void write_vec(std::ostream& os, const char* key,
               const std::vector<Index>& v) {
  os << key;
  for (Index x : v) os << ' ' << x;
  os << '\n';
}

std::vector<Index> read_vec(std::istringstream& line) {
  std::vector<Index> v;
  Index x;
  while (line >> x) v.push_back(x);
  return v;
}

/// Fetch the next non-empty line and verify its leading keyword.
std::istringstream next_record(std::istream& is, const std::string& want) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    TTLG_CHECK_CODE(key == want, ErrorCode::kDataLoss,
                    "plan record: expected '" + want + "', got '" + key +
                        "'");
    return ls;
  }
  TTLG_RAISE(ErrorCode::kDataLoss,
             "plan record truncated: missing '" + want + "'");
}

/// Parse everything between the version header and the checksum line
/// into a problem + selection. Throws classified errors; the caller
/// folds them into kDataLoss (a checksummed file whose body still fails
/// to parse was corrupted before the checksum was computed, or
/// hand-edited).
std::pair<TransposeProblem, KernelSelection> parse_body(std::istream& is,
                                                        int* spec_tier) {
  auto shape_line = next_record(is, "shape");
  const Shape shape(read_vec(shape_line));
  auto perm_line = next_record(is, "perm");
  const Permutation perm(read_vec(perm_line));
  int elem = 8;
  next_record(is, "elem") >> elem;
  int schema_int = 0;
  next_record(is, "schema") >> schema_int;

  auto problem = TransposeProblem::make(shape, perm, elem);
  KernelSelection sel;
  sel.schema = static_cast<Schema>(schema_int);
  switch (sel.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge: {
      int batched = 0;
      next_record(is, "fvil") >> batched;
      sel.fvi_large = build_fvi_large_config(problem, batched != 0);
      break;
    }
    case Schema::kFviMatchSmall: {
      Index b = 1;
      int coarsen = 0;
      next_record(is, "fvis") >> b >> coarsen;
      sel.fvi_small = build_fvi_small_config(problem, b, coarsen != 0);
      break;
    }
    case Schema::kOrthogonalDistinct: {
      OdSlice s;
      Index pitch = kOdTilePitch, extra = 0;
      next_record(is, "od") >> s.dims_in >> s.dims_out >> s.block_a >>
          s.block_b >> pitch >> extra;
      s.a_vol = s.block_a;
      for (Index d = 0; d + 1 < s.dims_in; ++d)
        s.a_vol *= problem.fused.shape.extent(d);
      s.b_vol = s.block_b;
      for (Index j = 0; j + 1 < s.dims_out; ++j)
        s.b_vol *= problem.fused_out.extent(j);
      sel.od = build_od_config(problem, s);
      sel.od.tile_pitch = pitch;
      sel.od.extra_row_specials = extra;
      break;
    }
    case Schema::kOrthogonalArbitrary: {
      OaSlice s;
      int coarsen = 0, padded = 1;
      next_record(is, "oa") >> s.dims_in >> s.block_a >> s.dims_out >>
          s.block_b >> coarsen >> padded;
      sel.oa = build_oa_config(problem, s, coarsen != 0);
      sel.oa.smem_padded = padded != 0;
      break;
    }
    default:
      TTLG_RAISE(ErrorCode::kDataLoss,
                 "unknown schema id " + std::to_string(schema_int));
  }
  next_record(is, "predicted") >> sel.predicted_s;
  auto spec_line = next_record(is, "spec");
  TTLG_CHECK_CODE(static_cast<bool>(spec_line >> *spec_tier),
                  ErrorCode::kDataLoss,
                  "plan file specialization tier is unreadable");
  TTLG_CHECK_CODE(
      *spec_tier == static_cast<int>(SpecTier::kGeneric) ||
          *spec_tier == static_cast<int>(SpecTier::kStrideProgram) ||
          *spec_tier == static_cast<int>(SpecTier::kAffineBulk),
      ErrorCode::kDataLoss,
      "plan file specialization tier out of range: " +
          std::to_string(*spec_tier));
  return {std::move(problem), std::move(sel)};
}

}  // namespace

void save_plan(std::ostream& os, const Plan& plan) {
  TTLG_CHECK(plan.valid(), "cannot save an empty plan");
  const auto& problem = plan.problem();
  const auto& sel = plan.selection();
  std::ostringstream body;
  body << kMagic << ' ' << kVersion << '\n';
  write_vec(body, "shape", problem.shape.extents());
  write_vec(body, "perm", problem.perm.vec());
  body << "elem " << problem.elem_size << '\n';
  body << "schema " << static_cast<int>(sel.schema) << '\n';
  switch (sel.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge:
      body << "fvil " << (sel.fvi_large.batch > 1 ? 1 : 0) << '\n';
      break;
    case Schema::kFviMatchSmall:
      body << "fvis " << sel.fvi_small.b << ' '
           << (sel.fvi_small.coarsen_extent > 1 ? 1 : 0) << '\n';
      break;
    case Schema::kOrthogonalDistinct:
      body << "od " << sel.od.slice.dims_in << ' ' << sel.od.slice.dims_out
           << ' ' << sel.od.slice.block_a << ' ' << sel.od.slice.block_b
           << ' ' << sel.od.tile_pitch << ' ' << sel.od.extra_row_specials
           << '\n';
      break;
    case Schema::kOrthogonalArbitrary:
      body << "oa " << sel.oa.slice.dims_in << ' ' << sel.oa.slice.block_a
           << ' ' << sel.oa.slice.dims_out << ' ' << sel.oa.slice.block_b
           << ' ' << (sel.oa.coarsen_extent > 1 ? 1 : 0) << ' '
           << (sel.oa.smem_padded ? 1 : 0) << '\n';
      break;
  }
  body << "predicted " << std::setprecision(17) << plan.predicted_time_s()
       << '\n';
  body << "spec " << static_cast<int>(plan.specialization_tier()) << '\n';
  // The checksum record must be the last line and covers every byte
  // before it (including the final newline of the payload).
  const std::string payload = body.str();
  os << payload << "checksum " << std::hex << fnv1a(payload) << std::dec
     << '\n';
  if (telemetry::log_site_enabled(telemetry::LogLevel::kDebug)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kDebug, "plan_io", "save");
    ev.field("schema", to_string(sel.schema))
        .field("shape", problem.shape.to_string())
        .field("bytes", static_cast<std::int64_t>(payload.size()));
  }
}

Plan load_plan(sim::Device& dev, std::istream& is) {
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());

  // Header first, so a merely-old file gets "unsupported version", not
  // a misleading checksum complaint (version 1 had no checksum line).
  {
    std::istringstream header(text);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    TTLG_CHECK_CODE(magic == kMagic, ErrorCode::kDataLoss,
                    "not a TTLG plan file (bad magic '" +
                        magic.substr(0, 32) + "')");
    TTLG_CHECK_CODE(
        version == kVersion, ErrorCode::kUnsupported,
        "unsupported plan file version " + std::to_string(version) +
            " (this library reads version " + std::to_string(kVersion) +
            "; version 4 retired the templated specialization tier — "
            "re-save the plan)");
  }

  // Verify the trailing checksum before trusting any of the body.
  const std::size_t last = text.find_last_not_of(" \t\r\n");
  TTLG_CHECK_CODE(last != std::string::npos, ErrorCode::kDataLoss,
                  "plan file is empty");
  const std::size_t line_start = text.rfind('\n', last);
  TTLG_CHECK_CODE(line_start != std::string::npos, ErrorCode::kDataLoss,
                  "plan file truncated: missing checksum record");
  const std::string payload = text.substr(0, line_start + 1);
  std::istringstream tail(text.substr(line_start + 1, last - line_start));
  std::string key;
  std::uint64_t stored = 0;
  tail >> key >> std::hex >> stored;
  TTLG_CHECK_CODE(key == "checksum", ErrorCode::kDataLoss,
                  "plan file truncated: missing checksum record");
  TTLG_CHECK_CODE(stored == fnv1a(payload), ErrorCode::kDataLoss,
                  "plan file checksum mismatch: contents were truncated "
                  "or corrupted after saving");

  // Parse the verified payload. Any failure in here — including invalid
  // shapes/permutations or config builders choking on garbage values —
  // means the file content is unusable: classify as data loss rather
  // than leaking implementation-detail errors (or worse, crashing).
  std::pair<TransposeProblem, KernelSelection> parsed;
  int spec_tier = 0;
  try {
    std::istringstream body(payload);
    std::string skip_header;
    std::getline(body, skip_header);
    parsed = parse_body(body, &spec_tier);
  } catch (const Error& e) {
    TTLG_RAISE(ErrorCode::kDataLoss,
               std::string("plan file body is corrupt: ") + e.what());
  } catch (const std::exception& e) {
    TTLG_RAISE(ErrorCode::kDataLoss,
               std::string("plan file body is corrupt: ") + e.what());
  }

  if (telemetry::log_site_enabled(telemetry::LogLevel::kDebug)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kDebug, "plan_io", "load");
    ev.field("schema", to_string(parsed.second.schema))
        .field("shape", parsed.first.shape.to_string());
  }

  // Outside the catch: a device-side failure while uploading offset
  // arrays is a resource problem, not data loss, and must keep its own
  // classification (it is retryable; data loss is not).
  Plan plan = Plan::from_selection(dev, std::move(parsed.first),
                                   std::move(parsed.second));

  // Re-derive the stride program and hold it against the persisted
  // tier: compilation is deterministic given (selection, device), so a
  // divergence means the file does not describe this plan — data loss,
  // not a soft downgrade. A stored tier of 0 skips compilation (the
  // saving process ran generic — e.g. TTLG_SPECIALIZE=0 — and restoring
  // it bit-exactly means staying generic); with specialization disabled
  // here the check is moot, the plan simply runs generic.
  const bool enabled = specialization_enabled_by_env();
  plan.finalize_specialization(enabled && spec_tier != 0);
  if (enabled && spec_tier != 0) {
    TTLG_CHECK_CODE(
        static_cast<int>(plan.specialization_tier()) == spec_tier,
        ErrorCode::kDataLoss,
        "plan file specialization tier mismatch: stored " +
            std::to_string(spec_tier) + ", re-derived " +
            std::to_string(static_cast<int>(plan.specialization_tier())));
  }
  return plan;
}

Expected<Plan> try_load_plan(sim::Device& dev, std::istream& is) {
  auto res = capture([&] { return load_plan(dev, is); });
  if (!res.has_value()) note_status_failure("load_plan", res.status());
  return res;
}

}  // namespace ttlg
