#include "src/util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/bm/parse.hpp"
#include "src/incr/manifest.hpp"
#include "src/minimalist/synth.hpp"
#include "src/serve/disk_cache.hpp"
#include "src/util/hash.hpp"
#include "src/util/io.hpp"
#include "src/util/json_parse.hpp"
#include "src/util/prng.hpp"
#include "src/util/workbudget.hpp"

namespace bb::util {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a b  c", " ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitMultipleDelims) {
  const auto parts = split("a,b;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitEmpty) { EXPECT_TRUE(split("", " ").empty()); }

TEST(Strings, SplitOnlyDelims) { EXPECT_TRUE(split("   ", " ").empty()); }

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("enc-early", "enc"));
  EXPECT_FALSE(starts_with("enc", "enc-early"));
  EXPECT_TRUE(ends_with("a_r", "_r"));
  EXPECT_FALSE(ends_with("r", "_r"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("A1_Req"), "a1_req"); }

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("mux_ack_x", "_", "-"), "mux-ack-x");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

TEST(WorkBudget, DefaultIsUnlimited) {
  WorkBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.exhausted());
  for (int i = 0; i < 1000; ++i) budget.charge(1000);
  EXPECT_EQ(budget.used(), 1000000u);
  EXPECT_FALSE(budget.exhausted());
}

TEST(WorkBudget, ThrowsPastLimit) {
  WorkBudget budget(10);
  budget.charge(10);
  EXPECT_EQ(budget.used(), 10u);
  EXPECT_TRUE(budget.exhausted());
  try {
    budget.charge(5);
    FAIL() << "charge past the limit must throw";
  } catch (const WorkBudgetExceeded& e) {
    EXPECT_EQ(e.limit(), 10u);
    EXPECT_EQ(e.used(), 15u);
  }
}

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SplitMix64, BoundedDraws) {
  SplitMix64 prng(7);
  for (int i = 0; i < 256; ++i) {
    EXPECT_LT(prng.below(13), 13u);
    const double u = prng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(AtomicWrite, WritesAndOverwrites) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bb_util_test_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "artifact.json").string();

  write_file_atomic(path, "{\"v\":1}\n");
  write_file_atomic(path, "{\"v\":2}\n");

  EXPECT_EQ(read_file(path), "{\"v\":2}\n");

  // No temporary files left behind next to the target.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicWrite, ThrowsOnUnwritablePath) {
  EXPECT_THROW(write_file_atomic("/nonexistent-dir/sub/x.json", "data"),
               std::runtime_error);
}

TEST(ReadFile, MissingFileIsNullopt) {
  EXPECT_FALSE(read_file("/nonexistent-dir/sub/x.json").has_value());
}

TEST(Frame, RoundTripsWithoutCopyingTheBody) {
  const std::string body = "line one\nline two\n";
  const std::string framed = frame("bbxx", 3, body);
  EXPECT_EQ(framed, "bbxx 3\n" + content_digest(body) + "\n" + body);
  std::string error;
  const auto view = unframe("bbxx", 3, framed, &error);
  ASSERT_TRUE(view.has_value()) << error;
  EXPECT_EQ(*view, body);
  // The body is a view into the framed bytes, not a copy.
  EXPECT_EQ(view->data(), framed.data() + framed.size() - body.size());

  const std::string empty = frame("bbxx", 3, "");
  ASSERT_TRUE(unframe("bbxx", 3, empty).has_value());
  EXPECT_TRUE(unframe("bbxx", 3, empty)->empty());
}

TEST(Frame, EveryDefectIsRejectedWithAReason) {
  const std::string body = "{\"k\":1}\nmore\n";
  const std::string good = frame("bbxx", 3, body);
  const std::size_t sum_end = good.find('\n', good.find('\n') + 1);
  const std::string flipped_sum =
      good.substr(0, sum_end - 1) +
      (good[sum_end - 1] == '0' ? "1" : "0") + good.substr(sum_end);
  const std::vector<std::pair<std::string, std::string>> defects = {
      {"no magic line", "bbxx 3"},
      {"wrong magic", frame("bbyy", 3, body)},
      {"magic prefix only", frame("bbx", 3, body)},
      {"version bump", frame("bbxx", 4, body)},
      {"no checksum line", "bbxx 3\n" + content_digest(body)},
      {"checksum mismatch", flipped_sum},
      {"truncated body", good.substr(0, good.size() - 1)},
  };
  for (const auto& [name, bytes] : defects) {
    std::string error;
    EXPECT_FALSE(unframe("bbxx", 3, bytes, &error).has_value()) << name;
    EXPECT_FALSE(error.empty()) << name;
  }
}

// The on-disk bytes of the incremental project files and of a disk-cache
// entry, recorded before the three formats shared util::frame.  A change
// here is a format change: bump kManifestVersion / kDiskEntryVersion.
TEST(OnDiskFormat, ManifestAndArtifactBytesArePinned) {
  incr::Manifest manifest;
  manifest.library = "lib-fp";
  manifest.options = "opt-fp";
  manifest.units.push_back({"alpha", "0123456789abcdef",
                            "alpha-0123456789abcdef.bba",
                            {{"ctl0", "fedcba9876543210"}, {"ctl1", ""}}});
  manifest.units.push_back(
      {"beta", "00000000000000ff", "beta-00000000000000ff.bba", {}});
  const std::string manifest_bytes =
      "bbpm 1\n61e560651c2d4161\n"
      R"({"schema_version":1,"library":"lib-fp","options":"opt-fp",)"
      R"("units":[{"name":"alpha","digest":"0123456789abcdef",)"
      R"("artifact":"alpha-0123456789abcdef.bba","controllers":[)"
      R"({"name":"ctl0","key":"fedcba9876543210"},{"name":"ctl1","key":""}]},)"
      R"({"name":"beta","digest":"00000000000000ff",)"
      R"("artifact":"beta-00000000000000ff.bba","controllers":[]}]})";
  EXPECT_EQ(incr::manifest_to_bytes(manifest), manifest_bytes);
  const auto manifest_back = incr::manifest_from_bytes(manifest_bytes);
  ASSERT_TRUE(manifest_back.has_value());
  EXPECT_EQ(incr::manifest_to_bytes(*manifest_back), manifest_bytes);

  const incr::Artifact artifact{"area 12\n\"ctl0\"\tok\n",
                                "module m;\nendmodule\n"};
  const std::string artifact_bytes =
      "bbart 1\n23ca86bcb8f5912c\n"
      R"({"schema_version":1,"report":"area 12\n\"ctl0\"\tok\n",)"
      R"("verilog":"module m;\nendmodule\n"})";
  EXPECT_EQ(incr::artifact_to_bytes(artifact), artifact_bytes);
  const auto artifact_back = incr::artifact_from_bytes(artifact_bytes);
  ASSERT_TRUE(artifact_back.has_value());
  EXPECT_EQ(artifact_back->report, artifact.report);
  EXPECT_EQ(artifact_back->verilog, artifact.verilog);
}

TEST(OnDiskFormat, DiskCacheEntryBytesArePinned) {
  constexpr const char* kWireBms = R"(
name wire
input a_r 0
output a_a 0
0 1 a_r+ | a_a+
1 0 a_r- | a_a-
)";
  const std::string entry_bytes = R"(bbdc 2
317e4cc91a7fad44
1
10
golden-key
bbctrl 1
name wire
inputs 1
a_r
outputs 1
a_a
state_bits 2
y0
y1
num_vars 3
functions 3
fn 0 3 2 a_a
11-
1-1
fn 1 3 3 y0
-10
0-1
01-
fn 1 3 3 y1
11-
1-1
-01
state_codes 2
10
01
initial 10
end
)";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bb_util_test_bbc_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    serve::DiskCache cache(dir.string());
    cache.store("golden-key", minimalist::synthesize(bm::parse_bms(kWireBms)));
    const std::string path = cache.entry_path("golden-key");
    EXPECT_EQ(std::filesystem::path(path).filename(),
              "d58077b959132f520071035d363d3b62.bbc");
    EXPECT_EQ(read_file(path), entry_bytes);
    EXPECT_TRUE(cache.load("golden-key").has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(ParseLl, AcceptsWholeIntegersOnly) {
  EXPECT_EQ(parse_ll("42"), 42);
  EXPECT_EQ(parse_ll("-7"), -7);
  EXPECT_EQ(parse_ll("  19 "), 19);  // surrounding whitespace is fine
  EXPECT_EQ(parse_ll("0"), 0);
  EXPECT_FALSE(parse_ll(""));
  EXPECT_FALSE(parse_ll("  "));
  EXPECT_FALSE(parse_ll("12x"));
  EXPECT_FALSE(parse_ll("x12"));
  EXPECT_FALSE(parse_ll("1 2"));
  EXPECT_FALSE(parse_ll("3.5"));
  EXPECT_FALSE(parse_ll("99999999999999999999999"));  // out of range
}

TEST(ParseJson, RoundTripsScalarsAndContainers) {
  std::string error;
  const auto doc = parse_json(
      R"({"s":"a\"bé","n":-3.5,"i":42,"b":true,"z":null,)"
      R"("a":[1,2,3],"o":{"k":"v"}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get_string("s"), "a\"b\xc3\xa9");
  EXPECT_DOUBLE_EQ(doc->get("n")->number, -3.5);
  EXPECT_FALSE(doc->get("n")->is_integer);
  EXPECT_EQ(doc->get_int("i", -1), 42);
  EXPECT_TRUE(doc->get_bool("b", false));
  EXPECT_TRUE(doc->get("z")->is_null());
  ASSERT_EQ(doc->get("a")->array.size(), 3u);
  EXPECT_EQ(doc->get("a")->array[1].integer, 2);
  EXPECT_EQ(doc->get("o")->get_string("k"), "v");
}

TEST(ParseJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nan", "+1"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ParseJson, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(parse_json(deep).has_value());
  std::string ok = "[[[[[[1]]]]]]";
  EXPECT_TRUE(parse_json(ok).has_value());
}

}  // namespace
}  // namespace bb::util
