// Crash-recovery suite for the durable live index.
//
// The contract under test: whatever byte the writer dies at — every WAL
// byte-boundary truncation, every injected I/O fault, a power cut under
// any DurabilityPolicy — LiveIndex::Recover() (a) never crashes, (b) never
// loses a mutation the policy acknowledged as durable, and (c) yields a
// state whose Search() (all three scorers) and
// ComputeStats() are bit-identical to a reference replay of the recovered
// operation prefix. Hostile WAL/manifest/CURRENT bytes (bit flips,
// truncations, stale generations, trailing garbage) are rejected with
// clean DataLoss statuses or recovered to the last committed point. All
// fault injection flows through util::FaultInjectingFileSystem — the
// production code has no test-only branches.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/live/wal.h"
#include "search/engine.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "util/deadline.h"
#include "util/filesystem.h"
#include "util/rng.h"

namespace toppriv {
namespace {

using index::IndexStats;
using index::InvertedIndex;
using index::live::DurabilityPolicy;
using index::live::EncodeWalHeader;
using index::live::IndexSnapshot;
using index::live::LiveIndex;
using index::live::LiveIndexOptions;
using index::live::ManifestFileName;
using index::live::StableId;
using index::live::WalFileName;
using search::LiveSearchEngine;
using search::ScoredDoc;
using util::FaultInjectingFileSystem;
using FaultMode = util::FaultInjectingFileSystem::FaultMode;

using Doc = std::vector<text::TermId>;

constexpr char kDir[] = "db";

std::unique_ptr<search::Scorer> MakeScorer(int which) {
  switch (which) {
    case 0:
      return search::MakeBm25Scorer();
    case 1:
      return search::MakeTfIdfScorer();
    default:
      return std::make_unique<search::LmDirichletScorer>();
  }
}

corpus::Corpus CorpusFromDocs(size_t vocab_size, const std::vector<Doc>& docs) {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  for (size_t t = 0; t < vocab_size; ++t) {
    vocab.AddTerm("t" + std::to_string(t));
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    c.AddDocument("d" + std::to_string(d), docs[d]);
  }
  return c;
}

// ------------------------------------------------------------ op scripts --
// A recovery test is: run a SCRIPT of logical operations against a durable
// index, crash it somewhere, recover, and compare against an in-test model
// replayed over the prefix the WAL proves. Ingests (even empty batches),
// deletes (even no-ops) and term-space declarations each map to exactly one
// WAL record; a SEAL only emits a record when the writer actually holds
// documents (the idle-refresh WAL-leak fix), so the op↔record mapping is
// computed by ScriptTrace — a test-side simulation of the writer's fill
// level — rather than assumed 1:1.

struct Op {
  enum Kind { kIngest, kDelete, kSeal, kTermSpace } kind;
  std::vector<Doc> docs;   // kIngest
  StableId stable = 0;     // kDelete
  size_t num_terms = 0;    // kTermSpace
};

Op IngestOp(std::vector<Doc> docs) {
  Op op;
  op.kind = Op::kIngest;
  op.docs = std::move(docs);
  return op;
}
Op DeleteOp(StableId stable) {
  Op op;
  op.kind = Op::kDelete;
  op.stable = stable;
  return op;
}
Op SealOp() {
  Op op;
  op.kind = Op::kSeal;
  return op;
}
Op TermSpaceOp(size_t n) {
  Op op;
  op.kind = Op::kTermSpace;
  op.num_terms = n;
  return op;
}

/// Mirrors the writer's fill level across a script to predict which ops
/// append WAL records. The rules are exactly LiveIndex's: each ingested
/// doc bumps the writer and an auto-seal at max_writer_docs empties it
/// (unlogged — it is part of the ingest's own record); deleting a doc
/// still buffered in the writer seals it first (also unlogged); an
/// explicit Seal appends a record ONLY when the writer is non-empty; and
/// ForceMerge/Checkpoint seal the writer with no record at all
/// (NoteUnloggedSeal). From the per-op emission list the trace answers the
/// two questions every sweep needs: how many records the first N ops
/// produced, and which op prefix a recovered record prefix proves.
class ScriptTrace {
 public:
  explicit ScriptTrace(const LiveIndexOptions& options)
      : max_writer_docs_(std::max<size_t>(1, options.max_writer_docs)) {}

  /// Feeds the next op; returns true when it appends a WAL record.
  bool Feed(const Op& op) {
    bool emits = true;
    switch (op.kind) {
      case Op::kIngest:
        for (size_t d = 0; d < op.docs.size(); ++d) {
          ++next_stable_;
          ++writer_docs_;
          if (writer_docs_ >= max_writer_docs_) writer_docs_ = 0;
        }
        break;
      case Op::kDelete:
        if (op.stable < next_stable_ && writer_docs_ > 0 &&
            op.stable >= next_stable_ - writer_docs_) {
          writer_docs_ = 0;  // the delete seals the writer first, unlogged
        }
        break;
      case Op::kSeal:
        emits = writer_docs_ > 0;
        writer_docs_ = 0;
        break;
      case Op::kTermSpace:
        break;
    }
    if (emits) record_op_.push_back(op_index_);
    ++op_index_;
    return emits;
  }

  /// Models an unlogged writer seal (ForceMerge, Checkpoint).
  void NoteUnloggedSeal() { writer_docs_ = 0; }

  /// Total records the fed ops appended.
  size_t total_records() const { return record_op_.size(); }

  /// Records appended by the first `op_count` ops.
  size_t RecordsBefore(size_t op_count) const {
    size_t n = 0;
    while (n < record_op_.size() && record_op_[n] < op_count) ++n;
    return n;
  }

  /// Op prefix a recovered prefix of `record_count` records proves: every
  /// op through the emitter of the last record. Ops past it that emitted
  /// nothing are record-less seals — logical no-ops either way.
  size_t OpsCovered(size_t record_count) const {
    if (record_count == 0) return 0;
    return record_op_[record_count - 1] + 1;
  }

  /// Whether the writer currently buffers documents (i.e. whether the NEXT
  /// explicit seal — including the one inside Refresh() — would log).
  bool writer_nonempty() const { return writer_docs_ > 0; }

 private:
  size_t max_writer_docs_;
  StableId next_stable_ = 0;
  size_t writer_docs_ = 0;
  size_t op_index_ = 0;
  std::vector<size_t> record_op_;
};

ScriptTrace TraceOf(const std::vector<Op>& ops,
                    const LiveIndexOptions& options) {
  ScriptTrace trace(options);
  for (const Op& op : ops) trace.Feed(op);
  return trace;
}

/// Applies ops [begin, end) through the public API (the same calls WAL
/// replay makes). Returns how many the index acknowledged — once it turns
/// unhealthy, the rest are refused and not counted.
size_t ApplyOpsRange(LiveIndex& live, const std::vector<Op>& ops, size_t begin,
                     size_t end) {
  size_t acked = 0;
  for (size_t i = begin; i < end && i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case Op::kIngest:
        live.Ingest(ops[i].docs);
        break;
      case Op::kDelete:
        live.Delete(ops[i].stable);
        break;
      case Op::kSeal:
        live.Flush();
        break;
      case Op::kTermSpace:
        live.EnsureTermSpace(ops[i].num_terms);
        break;
    }
    if (!live.healthy()) break;
    ++acked;
  }
  return acked;
}

size_t ApplyOps(LiveIndex& live, const std::vector<Op>& ops, size_t count) {
  return ApplyOpsRange(live, ops, 0, count);
}

/// The logical collection after the first `count` ops: live documents in
/// stable-ingest order (exactly what a static build would index).
std::vector<Doc> ModelDocs(const std::vector<Op>& ops, size_t count) {
  std::vector<Doc> by_stable;
  std::vector<bool> deleted;
  for (size_t i = 0; i < count && i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::kIngest) {
      for (const Doc& d : op.docs) {
        by_stable.push_back(d);
        deleted.push_back(false);
      }
    } else if (op.kind == Op::kDelete) {
      if (op.stable < by_stable.size()) deleted[op.stable] = true;
    }
  }
  std::vector<Doc> live_docs;
  for (size_t s = 0; s < by_stable.size(); ++s) {
    if (!deleted[s]) live_docs.push_back(by_stable[s]);
  }
  return live_docs;
}

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want,
                      const char* context) {
  EXPECT_EQ(got.num_terms, want.num_terms) << context;
  EXPECT_EQ(got.num_documents, want.num_documents) << context;
  EXPECT_EQ(got.total_postings, want.total_postings) << context;
  EXPECT_EQ(got.max_list_length, want.max_list_length) << context;
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes) << context;
  EXPECT_EQ(got.pir_padded_bytes, want.pir_padded_bytes) << context;
  EXPECT_DOUBLE_EQ(got.avg_list_length, want.avg_list_length) << context;
}

/// THE recovery parity check: `live` must be search- and stats-
/// indistinguishable from a static build of `final_docs`, across all
/// three scorers and both evaluation strategies.
void ExpectLiveMatchesStatic(LiveIndex& live, const std::vector<Doc>& final_docs,
                             size_t vocab_size, const std::vector<Doc>& queries,
                             size_t k, const char* context) {
  // The static corpus always declares the full vocabulary; a recovered
  // prefix may predate the script's kTermSpace record, so re-level here
  // (a logical no-op whenever that record was recovered).
  live.EnsureTermSpace(vocab_size);
  corpus::Corpus expected = CorpusFromDocs(vocab_size, final_docs);
  InvertedIndex static_index = InvertedIndex::Build(expected);
  std::shared_ptr<const IndexSnapshot> snapshot = live.Refresh();
  ASSERT_EQ(snapshot->num_documents(), static_index.num_documents()) << context;
  ExpectStatsEqual(snapshot->ComputeStats(), static_index.ComputeStats(),
                   context);
  for (int scorer_kind = 0; scorer_kind < 3; ++scorer_kind) {
    search::SearchEngine mono(expected, static_index, MakeScorer(scorer_kind));
    LiveSearchEngine engine(expected, live, MakeScorer(scorer_kind));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE(::testing::Message() << context << " scorer="
                                        << scorer_kind << " query=" << qi);
      ExpectBitIdentical(engine.Evaluate(queries[qi], k),
                         mono.Evaluate(queries[qi], k), context);
    }
  }
}

/// Recovers from `fs` and asserts full parity against the model replay of
/// the op prefix the recovered RECORD prefix proves (via `trace`). Returns
/// the recovered record-prefix length.
size_t RecoverAndCheck(util::FileSystem* fs, const LiveIndexOptions& options,
                       const std::vector<Op>& ops, const ScriptTrace& trace,
                       size_t vocab, const std::vector<Doc>& queries,
                       const char* context) {
  LiveIndex::RecoveryStats stats;
  auto recovered = LiveIndex::Recover(fs, kDir, options, &stats);
  EXPECT_TRUE(recovered.ok()) << context << ": " << recovered.status().message();
  if (!recovered.ok()) return 0;
  const size_t prefix = static_cast<size_t>((*recovered)->wal_sequence());
  EXPECT_LE(prefix, trace.total_records()) << context;
  ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, trace.OpsCovered(prefix)),
                          vocab, queries, 5, context);
  return prefix;
}

// Deterministic small-doc generator (seeded Rng; no wall clock).
Doc SynthDoc(util::Rng& rng, size_t vocab, size_t min_len = 3,
             size_t max_len = 9) {
  const size_t len = min_len + rng.UniformInt(uint64_t{max_len - min_len});
  Doc d;
  d.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    d.push_back(static_cast<text::TermId>(rng.UniformInt(uint64_t{vocab})));
  }
  return d;
}

/// The standard small script used by the exhaustive sweeps: term-space
/// declaration, multi-doc batches (some crossing the auto-seal threshold),
/// deletes of live and bogus ids, explicit seals, an empty batch. Small
/// enough that full 3-scorer × 2-strategy parity at EVERY WAL byte
/// boundary stays fast.
std::vector<Op> SmallScript(size_t vocab) {
  util::Rng rng(20260808);
  std::vector<Op> ops;
  ops.push_back(TermSpaceOp(vocab));
  StableId next = 0;
  for (int batch = 0; batch < 7; ++batch) {
    std::vector<Doc> docs;
    const size_t n = 1 + rng.UniformInt(uint64_t{4});
    for (size_t i = 0; i < n; ++i) docs.push_back(SynthDoc(rng, vocab));
    next += docs.size();
    ops.push_back(IngestOp(std::move(docs)));
    if (batch == 2 || batch == 5) {
      ops.push_back(SealOp());
      // A back-to-back seal finds the writer empty and must append NO
      // record (the idle-refresh fix) — a mid-script record-less op that
      // every sweep's op↔record mapping has to get right.
      if (batch == 5) ops.push_back(SealOp());
    }
    if (batch >= 1) {
      ops.push_back(DeleteOp(rng.UniformInt(next)));  // usually live
    }
  }
  ops.push_back(DeleteOp(next + 1000));  // never-assigned id: no-op
  ops.push_back(IngestOp({}));           // empty batch: no-op, still logged
  ops.push_back(SealOp());
  ops.push_back(SealOp());  // trailing record-less seal
  return ops;
}

LiveIndexOptions SmallOptions(DurabilityPolicy policy) {
  LiveIndexOptions options;
  options.max_writer_docs = 8;  // force auto-seals mid-script
  options.merge_factor = 2;     // force tiered merges
  options.durability = policy;
  return options;
}

std::vector<Doc> SmallQueries(size_t vocab) {
  util::Rng rng(17);
  std::vector<Doc> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(SynthDoc(rng, vocab, 1, 4));
  return queries;
}

// --------------------------------------------------- byte-boundary sweep --

TEST(WalRecoveryTest, EveryByteBoundaryTruncationRecoversWithParity) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  const ScriptTrace trace = TraceOf(ops, options);
  // The script must exercise the seal-skip: fewer records than ops.
  ASSERT_LT(trace.total_records(), ops.size());

  // Run the whole script durably, then crash at EVERY byte of the WAL.
  FaultInjectingFileSystem fs;
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok()) << live.status().message();
  ASSERT_EQ(ApplyOps(**live, ops, ops.size()), ops.size());
  ASSERT_EQ((*live)->wal_sequence(), trace.total_records());
  const uint64_t generation = (*live)->wal_generation();
  const std::string wal_path = std::string(kDir) + "/" + WalFileName(generation);
  const std::string wal_bytes = fs.FileBytes(wal_path);
  ASSERT_GT(wal_bytes.size(), 100u);  // the sweep must actually cover records
  live->reset();  // destroy the writer before recovering its crash images

  // Cuts inside the header model corruption, not a crash (the header was
  // fsync'd before CURRENT named this generation), so they must be REFUSED.
  const size_t header_len = EncodeWalHeader(generation, 0).size();
  size_t prev_prefix = 0;
  size_t distinct_prefixes = 0;
  for (size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    auto crash = fs.Clone();
    crash->Truncate(wal_path, cut);
    const std::string context = "cut=" + std::to_string(cut);
    if (cut < header_len) {
      auto r = LiveIndex::Recover(crash.get(), kDir, options);
      ASSERT_FALSE(r.ok()) << context;
      EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss) << context;
      continue;
    }
    const size_t prefix = RecoverAndCheck(crash.get(), options, ops, trace,
                                          vocab, queries, context.c_str());
    // More surviving bytes can only ever reveal MORE committed ops.
    EXPECT_GE(prefix, prev_prefix) << context;
    if (prefix > prev_prefix) ++distinct_prefixes;
    prev_prefix = prefix;
  }
  // The full WAL replays fully, and every record boundary was hit.
  EXPECT_EQ(prev_prefix, trace.total_records());
  EXPECT_EQ(distinct_prefixes, trace.total_records());
}

// --------------------------------------------------------- fault sweeps --

void FaultSweep(FaultMode mode) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  const ScriptTrace trace = TraceOf(ops, options);

  for (uint64_t fault_at = 0;; ++fault_at) {
    ASSERT_LT(fault_at, 10000u) << "fault sweep failed to terminate";
    FaultInjectingFileSystem fs;
    fs.ArmFault(fault_at, mode);
    size_t acked = 0;
    {
      // The victim: the fault can hit the fresh-directory checkpoint, any
      // WAL append, or any sync. Whatever happens must not crash.
      auto live = LiveIndex::Recover(&fs, kDir, options);
      if (live.ok()) {
        acked = ApplyOps(**live, ops, ops.size());
      }
    }
    const bool fired = fs.fault_fired();
    fs.DisarmFault();
    fs.PowerCut();  // un-synced bytes vanish with the process
    const std::string context =
        std::string(mode == FaultMode::kFailOp ? "fail" : "short") + "-at-" +
        std::to_string(fault_at) + " acked=" + std::to_string(acked);
    const size_t prefix = RecoverAndCheck(&fs, options, ops, trace, vocab,
                                          queries, context.c_str());
    // Durability floor: under kPerBatch every acknowledged op's records
    // (record-less seals ack without one) were synced before its call
    // returned, so recovery may never come back short of them.
    EXPECT_GE(prefix, trace.RecordsBefore(acked)) << context;
    if (!fired) {
      // The fault index outran the script's total I/O: sweep complete.
      EXPECT_EQ(acked, ops.size());
      EXPECT_EQ(prefix, trace.total_records());
      break;
    }
  }
}

TEST(WalRecoveryTest, EveryFailOpFaultPointRecoversWithParity) {
  FaultSweep(FaultMode::kFailOp);
}

TEST(WalRecoveryTest, EveryShortWriteFaultPointRecoversWithParity) {
  FaultSweep(FaultMode::kShortWrite);
}

TEST(WalRecoveryTest, FaultedIndexRefusesMutationsButKeepsServing) {
  FaultInjectingFileSystem fs;
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok());
  (*live)->Ingest({{0, 1, 2}, {1, 2, 3}});
  auto before = (*live)->Refresh();
  ASSERT_TRUE((*live)->healthy());

  fs.ArmFault(0, FaultMode::kFailOp);
  EXPECT_TRUE((*live)->Ingest({{2, 3}}).empty());  // the doomed write
  EXPECT_FALSE((*live)->healthy());
  EXPECT_FALSE((*live)->wal_status().ok());
  // Every further mutation is refused — memory must never outrun the log.
  EXPECT_TRUE((*live)->Ingest({{0}}).empty());
  EXPECT_FALSE((*live)->Delete(0));
  EXPECT_FALSE((*live)->Checkpoint().ok());
  EXPECT_FALSE((*live)->SyncWal().ok());
  // ...but reads keep serving the pre-fault state.
  auto after = (*live)->Acquire();
  EXPECT_EQ(after->num_documents(), before->num_documents());
}

// ------------------------------------------------- power cut per policy --

TEST(WalRecoveryTest, PerBatchPolicyLosesNothingAtPowerCut) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  const ScriptTrace trace = TraceOf(ops, options);
  FaultInjectingFileSystem fs;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok());
    ASSERT_EQ(ApplyOps(**live, ops, ops.size()), ops.size());
  }
  fs.PowerCut();
  EXPECT_EQ(RecoverAndCheck(&fs, options, ops, trace, vocab, queries,
                            "per-batch"),
            trace.total_records());
}

TEST(WalRecoveryTest, PerRefreshPolicyKeepsExactlyTheRefreshedPrefix) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerRefresh);
  // Sync points = Refresh() calls. Power-cut after each one in turn and
  // check recovery lands exactly on the refreshed boundary (appended-but-
  // unsynced suffix records die with the page cache — even though the
  // index acknowledged them in memory).
  for (size_t refresh_after : {size_t{3}, size_t{9}, ops.size()}) {
    ScriptTrace partial(options);
    for (size_t i = 0; i < refresh_after; ++i) partial.Feed(ops[i]);
    // Refresh appends one more seal record only when the writer holds
    // documents at the boundary; either way it syncs every appended record.
    const size_t refreshed =
        partial.total_records() + (partial.writer_nonempty() ? 1 : 0);
    FaultInjectingFileSystem fs;
    {
      auto live = LiveIndex::Recover(&fs, kDir, options);
      ASSERT_TRUE(live.ok());
      ASSERT_EQ(ApplyOps(**live, ops, refresh_after), refresh_after);
      (*live)->Refresh();
      ApplyOpsRange(**live, ops, refresh_after, ops.size());  // never synced
    }
    fs.PowerCut();
    const std::string context =
        "per-refresh boundary=" + std::to_string(refresh_after);
    auto recovered = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(recovered.ok()) << context;
    EXPECT_EQ((*recovered)->wal_sequence(), refreshed) << context;
    // The model ignores seals, so parity over the raw prefix holds.
    ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, refresh_after), vocab,
                            queries, 5, context.c_str());
  }
}

TEST(WalRecoveryTest, ManualPolicyLosesEverythingPastTheLastSync) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kManual);
  const ScriptTrace trace = TraceOf(ops, options);
  for (size_t sync_after : {size_t{0}, size_t{5}, ops.size()}) {
    FaultInjectingFileSystem fs;
    {
      auto live = LiveIndex::Recover(&fs, kDir, options);
      ASSERT_TRUE(live.ok());
      ASSERT_EQ(ApplyOps(**live, ops, sync_after), sync_after);
      ASSERT_TRUE((*live)->SyncWal().ok());
      ApplyOpsRange(**live, ops, sync_after, ops.size());  // never synced
    }
    fs.PowerCut();
    const std::string context = "manual sync=" + std::to_string(sync_after);
    auto recovered = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(recovered.ok()) << context;
    EXPECT_EQ((*recovered)->wal_sequence(), trace.RecordsBefore(sync_after))
        << context;
    ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, sync_after), vocab,
                            queries, 5, context.c_str());
  }
}

// ------------------------------------------- idle churn + group commit --

TEST(WalRecoveryTest, IdleRefreshLeavesTheWalByteForByteUnchanged) {
  // THE headline bugfix. Flush()/Refresh()/Serialize() used to append a
  // kSeal record even with an empty writer, so a serving loop that calls
  // Refresh() on a timer grew the WAL without bound while ingest was idle
  // — and under kPerBatch paid an fsync per call. Now an idle cycle leaves
  // the log byte-for-byte unchanged and issues zero filesystem ops.
  for (DurabilityPolicy policy :
       {DurabilityPolicy::kPerBatch, DurabilityPolicy::kPerRefresh,
        DurabilityPolicy::kManual}) {
    FaultInjectingFileSystem fs;
    const LiveIndexOptions options = SmallOptions(policy);
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok()) << live.status().message();
    (*live)->EnsureTermSpace(8);
    (*live)->Ingest({{0, 1, 2}, {1, 2}});
    (*live)->Refresh();  // seals + (non-manual) syncs the real work
    if (policy == DurabilityPolicy::kManual) {
      ASSERT_TRUE((*live)->SyncWal().ok());
    }
    const std::string wal_path =
        std::string(kDir) + "/" + WalFileName((*live)->wal_generation());
    const std::string bytes_before = fs.FileBytes(wal_path);
    const uint64_t seq_before = (*live)->wal_sequence();
    const uint64_t io_before = fs.op_count();
    for (int i = 0; i < 200; ++i) {
      (*live)->Refresh();
      (*live)->Flush();
      (void)(*live)->Serialize();
    }
    // Not one byte appended, not one record logged, not one I/O issued.
    EXPECT_EQ(fs.FileBytes(wal_path), bytes_before);
    EXPECT_EQ((*live)->wal_sequence(), seq_before);
    EXPECT_EQ(fs.op_count(), io_before);
    live->reset();
    // The idle-churned log recovers exactly the pre-churn state.
    fs.PowerCut();
    auto recovered = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ((*recovered)->wal_sequence(), seq_before);
    ExpectLiveMatchesStatic(**recovered, {{0, 1, 2}, {1, 2}}, 8,
                            {{1}, {0, 2}}, 5, "idle-churn");
  }
}

TEST(WalRecoveryTest, GroupCommitConcurrentWritersLoseNoAcknowledgedWrite) {
  // kPerBatch's group commit: concurrent writers share fsyncs through the
  // synced-sequence watermark (a follower whose record a leader's fsync
  // already covered acks for free). The loss bound must be exactly the
  // sequential one: every acknowledged call survives a power cut, one
  // record per call, in WAL sequence order.
  constexpr size_t kThreads = 4;
  constexpr size_t kDocsPerThread = 32;
  const size_t vocab = kThreads * kDocsPerThread;
  LiveIndexOptions options;
  options.durability = DurabilityPolicy::kPerBatch;
  options.max_writer_docs = 8;
  options.merge_factor = 2;
  FaultInjectingFileSystem fs;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok()) << live.status().message();
    (*live)->EnsureTermSpace(vocab);
    std::vector<std::thread> writers;
    std::vector<size_t> acked(kThreads, 0);
    for (size_t w = 0; w < kThreads; ++w) {
      writers.emplace_back([&live, &acked, w] {
        for (size_t i = 0; i < kDocsPerThread; ++i) {
          // One single-term doc per call, the term unique to (writer, i),
          // so the recovered image proves every call independently.
          const text::TermId term =
              static_cast<text::TermId>(w * kDocsPerThread + i);
          if (!(*live)->Ingest({{term, term}}).empty()) ++acked[w];
        }
      });
    }
    for (std::thread& t : writers) t.join();
    for (size_t w = 0; w < kThreads; ++w) {
      ASSERT_EQ(acked[w], kDocsPerThread) << "writer " << w;
    }
    // One record per ingest plus the term-space declaration; auto-seals
    // ride inside the ingest records.
    EXPECT_EQ((*live)->wal_sequence(), 1 + kThreads * kDocsPerThread);
  }
  fs.PowerCut();  // acknowledged ⇒ fsynced: nothing may be lost
  auto recovered = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->wal_sequence(), 1 + kThreads * kDocsPerThread);
  auto snapshot = (*recovered)->Refresh();
  ASSERT_EQ(snapshot->num_documents(), kThreads * kDocsPerThread);
  for (size_t t = 0; t < vocab; ++t) {
    EXPECT_EQ(snapshot->DocFreq(static_cast<text::TermId>(t)), 1u)
        << "term " << t;
  }
}

TEST(WalRecoveryTest, PowerCutDuringGroupCommitSyncFaultKeepsAckExact) {
  // The nasty corner of group commit: a follower is parked on the
  // synced-seq watermark when the leader's fsync DIES. The follower must
  // observe the latched WAL error and return un-acked — a false ack here
  // would be an acknowledged write the power cut then erases. Sweep the
  // one-shot fault across the storm's whole I/O range so it lands on
  // appends, leader fsyncs and (at high contention) mid-wait watermark
  // checks alike; after every landing, power-cut and prove ack-exactness:
  // under kPerBatch an un-acked single-doc ingest's record can never have
  // been covered by a SUCCESSFUL sync (syncs stop at the latch), so the
  // recovered image must hold EXACTLY the acknowledged docs — acked in,
  // un-acked out.
  constexpr size_t kThreads = 4;
  constexpr size_t kDocsPerThread = 16;
  const size_t vocab = kThreads * kDocsPerThread;
  LiveIndexOptions options;
  options.durability = DurabilityPolicy::kPerBatch;
  options.max_writer_docs = 8;
  options.merge_factor = 2;
  for (uint64_t fault_at : {uint64_t{10}, uint64_t{40}, uint64_t{90}}) {
    FaultInjectingFileSystem fs;
    std::vector<std::vector<bool>> acked(kThreads,
                                         std::vector<bool>(kDocsPerThread));
    {
      auto live = LiveIndex::Recover(&fs, kDir, options);
      ASSERT_TRUE(live.ok()) << live.status().message();
      (*live)->EnsureTermSpace(vocab);
      fs.ArmFault(fault_at, FaultMode::kFailOp);
      std::vector<std::thread> writers;
      for (size_t w = 0; w < kThreads; ++w) {
        writers.emplace_back([&live, &acked, w] {
          for (size_t i = 0; i < kDocsPerThread; ++i) {
            // One single-term doc per call, the term unique to (writer, i),
            // so the crash image proves every ack individually.
            const text::TermId term =
                static_cast<text::TermId>(w * kDocsPerThread + i);
            if (!(*live)->Ingest({{term, term}}).empty()) acked[w][i] = true;
          }
        });
      }
      for (std::thread& t : writers) t.join();
      ASSERT_TRUE(fs.fault_fired()) << "fault_at=" << fault_at;
      fs.DisarmFault();
      // The fleet ran into the latch: the index is degraded and says so
      // through the typed mutation API.
      EXPECT_FALSE((*live)->healthy());
      EXPECT_EQ((*live)->health(), LiveIndex::Health::kDegraded);
      EXPECT_EQ((*live)->IngestChecked({{0}}).status().code(),
                util::StatusCode::kUnavailable);
      EXPECT_FALSE((*live)->last_error().ok());
    }
    fs.PowerCut();  // un-synced bytes die with the machine
    auto recovered = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(recovered.ok())
        << "fault_at=" << fault_at << ": " << recovered.status().message();
    auto snapshot = (*recovered)->Refresh();
    size_t total_acked = 0;
    for (size_t w = 0; w < kThreads; ++w) {
      for (size_t i = 0; i < kDocsPerThread; ++i) {
        const text::TermId term =
            static_cast<text::TermId>(w * kDocsPerThread + i);
        const size_t df = snapshot->DocFreq(term);
        if (acked[w][i]) {
          ++total_acked;
          EXPECT_EQ(df, 1u) << "acked term " << term << " lost (fault_at="
                            << fault_at << ")";
        } else {
          EXPECT_EQ(df, 0u) << "un-acked term " << term
                            << " fabricated (fault_at=" << fault_at << ")";
        }
      }
    }
    EXPECT_EQ(snapshot->num_documents(), total_acked)
        << "fault_at=" << fault_at;
    // A freshly recovered image is healthy; Repair is a clean no-op.
    util::ManualClock clock;
    EXPECT_TRUE((*recovered)->Repair(util::RetryPolicy(), &clock).ok());
    EXPECT_TRUE((*recovered)->healthy());
  }
}

// ---------------------------------------------- checkpoint + generations --

TEST(WalRecoveryTest, CheckpointCollapsesTheWalAndSurvivesPowerCut) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kManual);
  const ScriptTrace trace = TraceOf(ops, options);
  FaultInjectingFileSystem fs;
  uint64_t generation = 0;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok());
    ApplyOps(**live, ops, 6);
    ASSERT_TRUE((*live)->Checkpoint().ok());  // ops 0..5 now in the manifest
    generation = (*live)->wal_generation();
    ApplyOpsRange(**live, ops, 6, ops.size());  // new WAL, never synced
  }
  // The superseded generation's files are gone.
  EXPECT_FALSE(
      fs.Exists(std::string(kDir) + "/" + WalFileName(generation - 1)));
  EXPECT_FALSE(
      fs.Exists(std::string(kDir) + "/" + ManifestFileName(generation - 1)));
  fs.PowerCut();
  // Manual policy: the post-checkpoint suffix was never synced, so
  // recovery lands exactly on the checkpoint — from the manifest alone.
  LiveIndex::RecoveryStats stats;
  auto recovered = LiveIndex::Recover(&fs, kDir, options, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.manifest_generation, generation);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ((*recovered)->wal_sequence(), trace.RecordsBefore(6));
  ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, 6), vocab, queries, 5,
                          "post-checkpoint");
}

TEST(WalRecoveryTest, RecoverIsIdempotent) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  const ScriptTrace trace = TraceOf(ops, options);
  FaultInjectingFileSystem fs;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok());
    ApplyOps(**live, ops, ops.size());
  }
  fs.PowerCut();
  std::string first_blob;
  for (size_t round = 0; round < 3; ++round) {
    auto recovered = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(recovered.ok()) << "round " << round;
    // Recovery checkpoints (sealing any replayed writer tail with no
    // record), so Serialize() finds an empty writer and appends NOTHING:
    // the logical clock is a fixed point across rounds. Before the seal-
    // skip fix it grew by one per round — each round's Serialize logged a
    // gratuitous empty seal for the next recovery to replay.
    EXPECT_EQ((*recovered)->wal_sequence(), trace.total_records())
        << "round " << round;
    const std::string blob = (*recovered)->Serialize();
    if (round == 0) {
      first_blob = blob;
    } else {
      // Recovery is a fixed point: recovering a recovered directory
      // reproduces the identical physical index, byte for byte.
      EXPECT_EQ(blob, first_blob) << "round " << round;
    }
  }
  auto final_round = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(final_round.ok());
  ExpectLiveMatchesStatic(**final_round, ModelDocs(ops, ops.size()), vocab,
                          queries, 5, "idempotent");
}

TEST(WalRecoveryTest, RecoveredPhysicalStateMatchesReferenceReplayByteForByte) {
  // Stronger than search parity: with identical options and inline merges,
  // recovery must rebuild the exact segment layout a reference replay
  // produces, so the two Serialize() blobs collide byte for byte.
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  FaultInjectingFileSystem fs;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok());
    ApplyOps(**live, ops, ops.size());
  }
  fs.PowerCut();
  auto recovered = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(recovered.ok());
  LiveIndex reference(options);  // in-memory twin of the same script
  ApplyOps(reference, ops, ops.size());
  EXPECT_EQ((*recovered)->Serialize(), reference.Serialize());
}

// ------------------------------------------------------- hostile inputs --

/// Builds a committed directory image with the full script applied under
/// kPerBatch, for corruption tests to deface. Outputs the live generation
/// and its WAL path.
std::unique_ptr<FaultInjectingFileSystem> BuildCommittedImage(
    const std::vector<Op>& ops, const LiveIndexOptions& options,
    std::string* wal_path, uint64_t* generation) {
  auto fs = std::make_unique<FaultInjectingFileSystem>();
  auto live = LiveIndex::Recover(fs.get(), kDir, options);
  if (!live.ok()) {
    ADD_FAILURE() << "building image: " << live.status().message();
    return nullptr;
  }
  ApplyOps(**live, ops, ops.size());
  *generation = (*live)->wal_generation();
  *wal_path = std::string(kDir) + "/" + WalFileName(*generation);
  return fs;
}

TEST(WalRecoveryTest, WalBitFlipsNeverCrashAndNeverFabricateState) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  const ScriptTrace trace = TraceOf(ops, options);
  std::string wal_path;
  uint64_t generation = 0;
  auto image = BuildCommittedImage(ops, options, &wal_path, &generation);
  ASSERT_NE(image, nullptr);
  const size_t wal_len = image->FileBytes(wal_path).size();
  ASSERT_GT(wal_len, 0u);

  for (size_t offset = 0; offset < wal_len; ++offset) {
    auto crash = image->Clone();
    crash->CorruptByte(wal_path, offset, 0x20);
    const std::string context = "flip@" + std::to_string(offset);
    auto recovered = LiveIndex::Recover(crash.get(), kDir, options);
    if (!recovered.ok()) {
      // Header damage: the file is untrustworthy end to end. Refusal must
      // be the clean kind.
      EXPECT_EQ(recovered.status().code(), util::StatusCode::kDataLoss)
          << context;
      continue;
    }
    // Record damage: replay stops at the flip, never past it, and the
    // recovered prefix is internally consistent (full parity).
    const size_t prefix = static_cast<size_t>((*recovered)->wal_sequence());
    EXPECT_LE(prefix, trace.total_records()) << context;
    ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, trace.OpsCovered(prefix)),
                            vocab, queries, 5, context.c_str());
  }
}

TEST(WalRecoveryTest, TrailingGarbageIsDiscardedNotFatal) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const std::vector<Doc> queries = SmallQueries(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  std::string wal_path;
  uint64_t generation = 0;
  auto image = BuildCommittedImage(ops, options, &wal_path, &generation);
  ASSERT_NE(image, nullptr);
  std::string bytes = image->FileBytes(wal_path);
  bytes += std::string("\x7f\x00garbage\xff\xfe trailing", 20);
  image->SetFileBytes(wal_path, bytes);

  LiveIndex::RecoveryStats stats;
  auto recovered = LiveIndex::Recover(image.get(), kDir, options, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.wal_tail_lost);
  EXPECT_EQ((*recovered)->wal_sequence(), TraceOf(ops, options).total_records());
  ExpectLiveMatchesStatic(**recovered, ModelDocs(ops, ops.size()), vocab,
                          queries, 5, "trailing-garbage");
}

TEST(WalRecoveryTest, StaleGenerationWalIsRejected) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  std::string wal_path;
  uint64_t generation = 0;
  auto image = BuildCommittedImage(ops, options, &wal_path, &generation);
  ASSERT_NE(image, nullptr);
  // A WAL whose header claims a DIFFERENT generation than CURRENT names —
  // e.g. a stale file resurrected by a broken backup — must not replay:
  // its sequence numbers describe a different manifest's suffix.
  image->SetFileBytes(wal_path, EncodeWalHeader(generation + 7, 0));
  auto recovered = LiveIndex::Recover(image.get(), kDir, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), util::StatusCode::kDataLoss);
}

TEST(WalRecoveryTest, MissingOrCorruptCommittedFilesAreDataLoss) {
  const size_t vocab = 16;
  const std::vector<Op> ops = SmallScript(vocab);
  const LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  std::string wal_path;
  uint64_t generation = 0;
  auto image = BuildCommittedImage(ops, options, &wal_path, &generation);
  ASSERT_NE(image, nullptr);
  const std::string manifest_path =
      std::string(kDir) + "/" + ManifestFileName(generation);

  {
    auto broken = image->Clone();
    ASSERT_TRUE(broken->Remove(manifest_path).ok());
    auto r = LiveIndex::Recover(broken.get(), kDir, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  }
  {
    auto broken = image->Clone();
    ASSERT_TRUE(broken->Remove(wal_path).ok());
    auto r = LiveIndex::Recover(broken.get(), kDir, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  }
  {
    // Every byte of the committed manifest is load-bearing: any flip is
    // caught by the CRC (or a structural check) and refused cleanly.
    const size_t len = image->FileBytes(manifest_path).size();
    for (size_t offset = 0; offset < len; offset += 7) {
      auto broken = image->Clone();
      broken->CorruptByte(manifest_path, offset, 0x10);
      auto r = LiveIndex::Recover(broken.get(), kDir, options);
      ASSERT_FALSE(r.ok()) << "manifest flip@" << offset;
      EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss)
          << "manifest flip@" << offset;
    }
  }
  {
    auto broken = image->Clone();
    broken->SetFileBytes(std::string(kDir) + "/CURRENT", "not a number\n");
    auto r = LiveIndex::Recover(broken.get(), kDir, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  }
}

// ------------------------------------------- random 16-stream schedules --

TEST(WalRecoveryTest, RandomSixteenStreamSchedulesSurviveRandomCrashes) {
  // Sixteen independent logical ingest/delete streams interleaved by a
  // seeded scheduler, over a bigger vocabulary, with auto-seals, tiered
  // merges and periodic ForceMerge — which is NOT logged, so recovery must
  // be merge-schedule-invariant. Crash at sampled WAL byte offsets and
  // check full parity each time.
  const size_t vocab = 48;
  util::Rng rng(0xC0FFEE);
  struct Stream {
    util::Rng rng;
    size_t ingested = 0;
  };
  std::vector<Stream> streams;
  for (int s = 0; s < 16; ++s) {
    streams.push_back(Stream{util::Rng(1000 + s), 0});
  }
  std::vector<Op> ops;
  ops.push_back(TermSpaceOp(vocab));
  std::vector<StableId> assigned;  // all stable ids ever ingested
  for (int step = 0; step < 140; ++step) {
    Stream& stream = streams[rng.UniformInt(uint64_t{16})];
    const uint64_t kind = stream.rng.UniformInt(uint64_t{10});
    if (kind < 6 || assigned.empty()) {
      std::vector<Doc> docs;
      const size_t n = 1 + stream.rng.UniformInt(uint64_t{5});
      for (size_t i = 0; i < n; ++i) {
        assigned.push_back(assigned.size());
        docs.push_back(SynthDoc(stream.rng, vocab));
      }
      stream.ingested += docs.size();
      ops.push_back(IngestOp(std::move(docs)));
    } else if (kind < 9) {
      ops.push_back(
          DeleteOp(assigned[stream.rng.UniformInt(assigned.size())]));
    } else {
      ops.push_back(SealOp());
    }
  }

  LiveIndexOptions options = SmallOptions(DurabilityPolicy::kPerBatch);
  options.max_writer_docs = 16;
  // The trace must mirror the run below exactly — including ForceMerge's
  // unlogged writer seals, which change whether LATER explicit seals log.
  ScriptTrace trace(options);
  for (size_t i = 0; i < ops.size(); ++i) {
    trace.Feed(ops[i]);
    if (i % 37 == 36) trace.NoteUnloggedSeal();
  }
  FaultInjectingFileSystem fs;
  uint64_t generation = 0;
  {
    auto live = LiveIndex::Recover(&fs, kDir, options);
    ASSERT_TRUE(live.ok());
    for (size_t i = 0; i < ops.size(); ++i) {
      ApplyOpsRange(**live, ops, i, i + 1);
      if (i % 37 == 36) (*live)->ForceMerge();  // unlogged physical churn
    }
    ASSERT_TRUE((*live)->healthy());
    ASSERT_EQ((*live)->wal_sequence(), trace.total_records());
    generation = (*live)->wal_generation();
  }
  const std::string wal_path = std::string(kDir) + "/" + WalFileName(generation);
  const std::string wal_bytes = fs.FileBytes(wal_path);
  ASSERT_GT(wal_bytes.size(), 1000u);
  const size_t header_len = EncodeWalHeader(generation, 0).size();

  const std::vector<Doc> queries = SmallQueries(vocab);
  // ~20 crash points spread over the file, plus both ends.
  size_t prev_prefix = 0;
  for (size_t sample = 0; sample <= 20; ++sample) {
    const size_t cut = sample * wal_bytes.size() / 20;
    auto crash = fs.Clone();
    crash->Truncate(wal_path, cut);
    const std::string context = "stream-cut=" + std::to_string(cut);
    if (cut < header_len) {
      auto r = LiveIndex::Recover(crash.get(), kDir, options);
      ASSERT_FALSE(r.ok()) << context;
      EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss) << context;
      continue;
    }
    const size_t prefix = RecoverAndCheck(crash.get(), options, ops, trace,
                                          vocab, queries, context.c_str());
    EXPECT_GE(prefix, prev_prefix) << context;
    prev_prefix = prefix;
  }
  EXPECT_EQ(prev_prefix, trace.total_records());
}

// ------------------------------------------------------ wire-format unit --

TEST(WalFormatTest, RecordRoundTripAllTypes) {
  using index::live::EncodeWalRecord;
  using index::live::ParseWal;
  using index::live::WalRecord;
  using index::live::WalRecordType;

  std::string file = EncodeWalHeader(3, 40);
  WalRecord ingest;
  ingest.seq = 40;
  ingest.type = WalRecordType::kIngest;
  ingest.docs = {{1, 2, 7}, {}, {5}};
  WalRecord del;
  del.seq = 41;
  del.type = WalRecordType::kDelete;
  del.stable = 123456789;
  WalRecord seal;
  seal.seq = 42;
  seal.type = WalRecordType::kSeal;
  WalRecord terms;
  terms.seq = 43;
  terms.type = WalRecordType::kTermSpace;
  terms.num_terms = 99;
  for (const WalRecord* r : {&ingest, &del, &seal, &terms}) {
    file += EncodeWalRecord(*r);
  }

  auto replay = ParseWal(file);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->generation, 3u);
  EXPECT_EQ(replay->base_seq, 40u);
  EXPECT_FALSE(replay->tail_lost);
  EXPECT_EQ(replay->next_seq, 44u);
  ASSERT_EQ(replay->records.size(), 4u);
  EXPECT_EQ(replay->records[0].docs, ingest.docs);
  EXPECT_EQ(replay->records[1].stable, del.stable);
  EXPECT_EQ(replay->records[2].type, WalRecordType::kSeal);
  EXPECT_EQ(replay->records[3].num_terms, 99u);
}

TEST(WalFormatTest, SequenceGapStopsReplay) {
  using index::live::EncodeWalRecord;
  using index::live::ParseWal;
  using index::live::WalRecord;
  using index::live::WalRecordType;

  std::string file = EncodeWalHeader(1, 0);
  WalRecord a;
  a.seq = 0;
  a.type = WalRecordType::kSeal;
  WalRecord stitched;
  stitched.seq = 5;  // CRC-valid record from some other life; wrong seq
  stitched.type = WalRecordType::kSeal;
  file += EncodeWalRecord(a);
  file += EncodeWalRecord(stitched);
  auto replay = ParseWal(file);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), 1u);
  EXPECT_TRUE(replay->tail_lost);
}

TEST(WalFormatTest, ManifestFileRejectsEveryDefect) {
  using index::live::EncodeManifestFile;
  using index::live::ParseManifestFile;

  const std::string good = EncodeManifestFile(7, 1234, "payload-bytes");
  auto parsed = ParseManifestFile(good);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->generation, 7u);
  EXPECT_EQ(parsed->base_seq, 1234u);
  EXPECT_EQ(parsed->blob, "payload-bytes");

  EXPECT_FALSE(ParseManifestFile("").ok());
  EXPECT_FALSE(ParseManifestFile(good + "x").ok());          // trailing bytes
  EXPECT_FALSE(ParseManifestFile(good.substr(0, 10)).ok());  // truncated
  std::string flipped = good;
  flipped[8] = static_cast<char>(flipped[8] ^ 0x01);
  EXPECT_FALSE(ParseManifestFile(flipped).ok());             // bit flip
}

}  // namespace
}  // namespace toppriv
