// Plan serialization: save/load round trips for every schema, with the
// reloaded plan producing identical results and identical simulated
// behaviour; malformed-input rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "core/plan_io.hpp"
#include "tensor/host_transpose.hpp"

namespace ttlg {
namespace {

class PlanIoRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  static std::pair<Extents, std::vector<Index>> pick(int i) {
    switch (i) {
      case 0:
        return {{6, 6, 6}, {0, 1, 2}};          // copy
      case 1:
        return {{64, 6, 8}, {0, 2, 1}};         // FVI large
      case 2:
        return {{16, 8, 8}, {0, 2, 1}};         // FVI small
      case 3:
        return {{40, 9, 40}, {2, 1, 0}};        // OD
      default:
        return {{8, 2, 24, 24, 24}, {2, 1, 3, 0, 4}};  // OA
    }
  }
};

TEST_P(PlanIoRoundTrip, SavedPlanReloadsAndAgrees) {
  const auto [ext, perm_v] = pick(GetParam());
  const Shape shape(ext);
  const Permutation perm(perm_v);
  sim::Device dev;
  Plan original = make_plan(dev, shape, perm);

  std::stringstream buf;
  save_plan(buf, original);
  Plan reloaded = load_plan(dev, buf);

  EXPECT_EQ(reloaded.schema(), original.schema());
  EXPECT_NEAR(reloaded.predicted_time_s(), original.predicted_time_s(),
              original.predicted_time_s() * 1e-12);

  Tensor<double> host(shape);
  host.fill_iota();
  auto in = dev.alloc_copy<double>(host.vec());
  auto out1 = dev.alloc<double>(shape.volume());
  auto out2 = dev.alloc<double>(shape.volume());
  const auto r1 = original.execute<double>(in, out1);
  const auto r2 = reloaded.execute<double>(in, out2);
  // Identical kernel decisions -> identical simulated behaviour.
  EXPECT_EQ(r1.counters.gld_transactions, r2.counters.gld_transactions);
  EXPECT_EQ(r1.counters.gst_transactions, r2.counters.gst_transactions);
  EXPECT_DOUBLE_EQ(r1.time_s, r2.time_s);
  for (Index i = 0; i < shape.volume(); ++i)
    ASSERT_EQ(out1[i], out2[i]) << i;
  const Tensor<double> expected = host_transpose(host, perm);
  for (Index i = 0; i < shape.volume(); ++i)
    ASSERT_EQ(out2[i], expected.at(i)) << i;
}

INSTANTIATE_TEST_SUITE_P(Schemas, PlanIoRoundTrip, ::testing::Range(0, 5));

ErrorCode load_code(sim::Device& dev, const std::string& text) {
  std::stringstream s(text);
  try {
    load_plan(dev, s);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "load_plan accepted: " << text.substr(0, 60);
  return ErrorCode::kInternal;
}

TEST(PlanIo, RejectsMalformedInputWithClassifiedCodes) {
  sim::Device dev;
  EXPECT_EQ(load_code(dev, "not-a-plan 1\n"), ErrorCode::kDataLoss);
  // Version mismatch (including pre-checksum version-1 files) is
  // kUnsupported with a re-save hint, not data loss.
  EXPECT_EQ(load_code(dev, "ttlg-plan 99\n"), ErrorCode::kUnsupported);
  EXPECT_EQ(load_code(dev, "ttlg-plan 1\nshape 4 4\n"),
            ErrorCode::kUnsupported);
  // Version 3 still names the retired templated tier: re-save.
  EXPECT_EQ(load_code(dev, "ttlg-plan 3\nshape 4 4\n"),
            ErrorCode::kUnsupported);
  // Right version but no checksum record.
  EXPECT_EQ(load_code(dev, "ttlg-plan 4\nshape 4 4\n"),
            ErrorCode::kDataLoss);
  EXPECT_EQ(load_code(dev, ""), ErrorCode::kDataLoss);
  Plan empty;
  std::stringstream out;
  EXPECT_THROW(save_plan(out, empty), Error);
}

std::string saved_plan_text(sim::Device& dev) {
  Plan plan = make_plan(dev, Shape({40, 9, 40}), Permutation({2, 1, 0}));
  std::stringstream buf;
  save_plan(buf, plan);
  return buf.str();
}

TEST(PlanIo, DetectsTruncation) {
  sim::Device dev;
  const std::string text = saved_plan_text(dev);
  // Every proper prefix must be rejected, and classified kDataLoss
  // (except the intact file itself).
  for (std::size_t len = 0; len < text.size(); len += 7)
    EXPECT_EQ(load_code(dev, text.substr(0, len)), ErrorCode::kDataLoss)
        << "prefix length " << len;
}

TEST(PlanIo, DetectsBitFlips) {
  sim::Device dev;
  const std::string text = saved_plan_text(dev);
  for (std::size_t pos = 0; pos < text.size(); pos += 11) {
    std::string corrupt = text;
    corrupt[pos] ^= 0x4;
    if (corrupt == text) continue;
    std::stringstream s(corrupt);
    try {
      load_plan(dev, s);
      ADD_FAILURE() << "accepted bit flip at " << pos;
    } catch (const Error& e) {
      // Flips in the version digit may classify as kUnsupported; every
      // other corruption must be kDataLoss. Nothing may escape
      // unclassified — that is the point of the test.
      EXPECT_TRUE(e.code() == ErrorCode::kDataLoss ||
                  e.code() == ErrorCode::kUnsupported)
          << "flip at " << pos << ": " << e.what();
    }
  }
}

TEST(PlanIo, RejectsGarbage) {
  sim::Device dev;
  Rng rng(20260805);
  for (int trial = 0; trial < 64; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng() % 256), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng() % 256);
    std::stringstream s(garbage);
    EXPECT_THROW(load_plan(dev, s), Error) << "trial " << trial;
  }
}

TEST(PlanIo, TryLoadReturnsStatusInsteadOfThrowing) {
  sim::Device dev;
  std::stringstream bad("ttlg-plan 4\ngarbage\n");
  auto result = try_load_plan(dev, bad);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), ErrorCode::kDataLoss);

  std::stringstream good(saved_plan_text(dev));
  auto ok = try_load_plan(dev, good);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->schema(), Schema::kOrthogonalDistinct);
}

TEST(PlanIo, FormatIsHumanReadable) {
  sim::Device dev;
  Plan plan = make_plan(dev, Shape({64, 64}), Permutation({1, 0}));
  std::stringstream buf;
  save_plan(buf, plan);
  const std::string text = buf.str();
  EXPECT_NE(text.find("ttlg-plan 4"), std::string::npos);
  EXPECT_NE(text.find("shape 64 64"), std::string::npos);
  EXPECT_NE(text.find("perm 1 0"), std::string::npos);
  EXPECT_NE(text.find("od "), std::string::npos);
  EXPECT_NE(text.find("checksum "), std::string::npos);
}

}  // namespace
}  // namespace ttlg
