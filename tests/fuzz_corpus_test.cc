// Round-trips every checked-in fuzz seed (fuzz/corpus/<target>/*) through
// the deserializer its fuzz target exercises, under the PLAIN test build —
// so corpus rot (a format change that silently invalidates the seeds, or a
// gen_seeds drift) fails CI long before the weekly fuzz job would notice
// its starting points all parse as garbage.
//
// The repo location comes in via TOPPRIV_SOURCE_DIR (a compile definition;
// see tests/CMakeLists.txt) because ctest's working directory is the build
// tree.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/live/wal.h"
#include "index/posting_list.h"
#include "topicmodel/lda_model.h"

namespace toppriv {
namespace {

namespace stdfs = std::filesystem;

stdfs::path CorpusDir(const std::string& target) {
  return stdfs::path(TOPPRIV_SOURCE_DIR) / "fuzz" / "corpus" / target;
}

std::vector<std::pair<std::string, std::string>> LoadSeeds(
    const std::string& target) {
  std::vector<std::pair<std::string, std::string>> seeds;
  for (const auto& entry : stdfs::directory_iterator(CorpusDir(target))) {
    std::ifstream in(entry.path(), std::ios::binary);
    EXPECT_TRUE(in.good()) << entry.path();
    seeds.emplace_back(entry.path().filename().string(),
                       std::string((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>()));
  }
  EXPECT_FALSE(seeds.empty()) << "no seeds for " << target
                              << " — run gen_seeds fuzz/corpus";
  return seeds;
}

TEST(FuzzCorpusTest, PostingListSeedsRoundTrip) {
  for (const auto& [name, bytes] : LoadSeeds("posting_list")) {
    size_t pos = 0;
    auto list = index::PostingList::DecodeFrom(bytes, &pos);
    ASSERT_TRUE(list.ok()) << name << ": " << list.status().message();
    EXPECT_EQ(pos, bytes.size()) << name;
    std::string encoded;
    list->EncodeTo(&encoded);
    EXPECT_EQ(encoded, bytes) << name << " is not canonical";
  }
}

TEST(FuzzCorpusTest, InvertedIndexSeedsRoundTrip) {
  for (const auto& [name, bytes] : LoadSeeds("inverted_index")) {
    auto idx = index::InvertedIndex::Deserialize(bytes);
    ASSERT_TRUE(idx.ok()) << name << ": " << idx.status().message();
    EXPECT_EQ(idx->Serialize(), bytes) << name << " is not canonical";
  }
}

TEST(FuzzCorpusTest, LdaModelSeedsRoundTrip) {
  for (const auto& [name, bytes] : LoadSeeds("lda_model")) {
    auto model = topicmodel::LdaModel::Deserialize(bytes);
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().message();
    EXPECT_EQ(model->Serialize(), bytes) << name << " is not canonical";
  }
}

TEST(FuzzCorpusTest, WalSeedsParse) {
  for (const auto& [name, bytes] : LoadSeeds("wal_replay")) {
    auto replay = index::live::ParseWal(bytes);
    ASSERT_TRUE(replay.ok()) << name << ": " << replay.status().message();
    // The deliberately torn seed loses its tail; the intact ones must not.
    if (name.find("torn") == std::string::npos) {
      EXPECT_FALSE(replay->tail_lost) << name;
    } else {
      EXPECT_TRUE(replay->tail_lost) << name;
    }
  }
}

}  // namespace
}  // namespace toppriv
