// Tests for the experiment fixture and sweep runners.
#include <cstdlib>

#include <gtest/gtest.h>

#include "experiments/fixture.h"
#include "experiments/runner.h"

namespace toppriv::experiments {
namespace {

FixtureConfig TinyConfig() {
  FixtureConfig config;
  config.corpus_params.num_docs = 150;
  config.corpus_params.mean_doc_length = 60;
  config.corpus_params.tail_vocab_size = 300;
  config.workload_params.num_queries = 12;
  config.lda_iterations = 20;
  config.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache";
  return config;
}

TEST(FixtureConfigTest, EnvOverrides) {
  ::setenv("TOPPRIV_DOCS", "123", 1);
  ::setenv("TOPPRIV_QUERIES", "17", 1);
  ::setenv("TOPPRIV_CACHE_DIR", "/tmp/somewhere", 1);
  FixtureConfig config = FixtureConfig::FromEnv();
  EXPECT_EQ(config.corpus_params.num_docs, 123u);
  EXPECT_EQ(config.workload_params.num_queries, 17u);
  EXPECT_EQ(config.cache_dir, "/tmp/somewhere");
  ::unsetenv("TOPPRIV_DOCS");
  ::unsetenv("TOPPRIV_QUERIES");
  ::unsetenv("TOPPRIV_CACHE_DIR");
}

TEST(FixtureConfigTest, InvalidEnvFallsBack) {
  for (const char* bad : {"not-a-number", "12abc"}) {
    ::setenv("TOPPRIV_DOCS", bad, 1);
    FixtureConfig config = FixtureConfig::FromEnv();
    EXPECT_EQ(config.corpus_params.num_docs, 1500u) << bad;
  }
  ::unsetenv("TOPPRIV_DOCS");
}

TEST(FixtureTest, PaperModelSizes) {
  EXPECT_EQ(PaperModelSizes(),
            (std::vector<size_t>{50, 100, 150, 200, 250, 300}));
  EXPECT_EQ(ExperimentFixture::ModelName(200), "LDA200");
  EXPECT_EQ(ExperimentFixture::ModelName(50), "LDA050");
}

TEST(FixtureTest, BuildsConsistentState) {
  ExperimentFixture fixture(TinyConfig());
  EXPECT_EQ(fixture.corpus().num_documents(), 150u);
  EXPECT_EQ(fixture.workload().size(), 12u);
  EXPECT_EQ(fixture.index().num_documents(), 150u);
  const topicmodel::LdaModel& model = fixture.model(15);
  EXPECT_EQ(model.num_topics(), 15u);
  EXPECT_EQ(model.vocab_size(), fixture.corpus().vocabulary_size());
  // Second call returns the same object (memoized).
  EXPECT_EQ(&fixture.model(15), &model);
}

TEST(FixtureTest, ModelCacheRoundtrip) {
  FixtureConfig config = TinyConfig();
  std::string serialized_first;
  {
    ExperimentFixture fixture(config);
    serialized_first = fixture.model(12).Serialize();
  }
  {
    // Fresh fixture: must load the cached model, not retrain differently.
    ExperimentFixture fixture(config);
    EXPECT_EQ(fixture.model(12).Serialize(), serialized_first);
  }
}

TEST(RunnerTest, TopPrivCellProducesSaneMetrics) {
  ExperimentFixture fixture(TinyConfig());
  core::PrivacySpec spec;
  spec.epsilon1 = 0.05;
  spec.epsilon2 = 0.02;
  TopPrivCell cell = RunTopPrivCell(fixture, 15, spec);
  EXPECT_EQ(cell.num_topics, 15u);
  EXPECT_GE(cell.cycle_length, 1.0);
  EXPECT_GE(cell.mask_pct, 0.0);
  EXPECT_GE(cell.exposure_before_pct, cell.exposure_pct);
  EXPECT_GE(cell.satisfied_fraction, 0.5);
  EXPECT_GT(cell.generation_seconds, 0.0);
  EXPECT_GE(cell.num_relevant_topics, 0.0);
}

TEST(RunnerTest, PdxCellProducesSaneMetrics) {
  ExperimentFixture fixture(TinyConfig());
  PdxCell cell = RunPdxCell(fixture, 15, 0.05, 4.0);
  EXPECT_EQ(cell.num_topics, 15u);
  EXPECT_DOUBLE_EQ(cell.expansion_factor, 4.0);
  EXPECT_GT(cell.decoys, 0.0);
  EXPECT_GE(cell.exposure_pct, 0.0);
}

TEST(RunnerTest, TopPrivBeatsPdxAtMatchedBudget) {
  // The Fig. 5 headline: at equal word budgets TopPriv exposes less than
  // PDX. Checked at expansion/cycle 4 on a small fixture.
  ExperimentFixture fixture(TinyConfig());
  core::PrivacySpec spec;
  spec.epsilon1 = 0.05;
  spec.epsilon2 = 0.01;
  spec.fixed_ghost_count = 3;  // cycle length 4 == expansion factor 4
  TopPrivCell ours = RunTopPrivCell(fixture, 15, spec);
  PdxCell theirs = RunPdxCell(fixture, 15, 0.05, 4.0);
  EXPECT_LT(ours.exposure_pct, theirs.exposure_pct);
}

}  // namespace
}  // namespace toppriv::experiments
