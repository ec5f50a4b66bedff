// LiveIndex: an LSM/Lucene-style dynamic inverted index — mutable in-memory
// writer, immutable sealed segments, tombstone deletes, tiered background
// merges, and snapshot-isolated readers.
//
// The repo's static indexes are built in one pass and frozen; TopPriv's
// premise (an always-on enterprise engine whose corpus grows under live
// query traffic) needs ingest to proceed WHILE ghost-query cycles are being
// served. The design splits the index into an ordered list of immutable
// Segments (see segment.h) plus one mutable SegmentWriter tail:
//
//   Ingest ──▶ SegmentWriter ──Seal──▶ [Seg][Seg][Seg] ──merge──▶ [Seg]
//   Delete ──▶ per-segment tombstone bitmap (copy-on-write)
//   readers ─▶ Acquire(): refcounted IndexSnapshot (segment list + bitmaps
//              + aggregated stats, pinned by shared_ptr — race-free while
//              ingest and merges continue)
//
// THE invariant (tests/live_index_test.cc): ingesting any corpus in any
// batch splits, with any interleaving of merges and deletes-then-reinserts,
// yields bit-identical Search() results and an identical ComputeStats() to
// the static InvertedIndex::Build of the final corpus. Three ingredients:
//
//  1. Stable ingest order. Every document gets a monotonically increasing
//     STABLE id; segments partition the stable space in order, merges keep
//     survivors in stable order. A snapshot renumbers the live documents
//     DENSELY in stable order ("dense ids"), which is exactly the doc-id
//     assignment a static Build over the final corpus would make — so
//     results and tie-breaks line up bit for bit.
//  2. Identical per-document arithmetic. Sealed segments' posting lists
//     are byte-identical to a static BuildRange over their documents
//     (segment.h), per-segment evaluation runs the shared AccumulateTopK
//     core with the snapshot's GLOBAL (live) collection
//     statistics and per-term document frequencies (the PR 3 global-IDF
//     discipline), and tombstoned documents are skipped without touching
//     any other document's score.
//  3. Deterministic merge of per-segment top-k lists through TopK's
//     (score desc, dense id asc) total order.
//
// Thread-safety: all mutations (Ingest, Delete, Flush, Refresh, merge
// commits) serialize on one writer mutex; readers touch only snapshot_mu_.
// The discipline is MACHINE-checked: both mutexes are util::Mutex
// capabilities, every guarded member carries GUARDED_BY, every *Locked
// helper REQUIRES(mu_), and the Clang -Wthread-safety -Werror CI job fails
// on any unlocked access (see util/thread_annotations.h and the lock map
// in docs/ARCHITECTURE.md). Everything a snapshot points at is immutable,
// so readers never block each other and never observe a half-applied
// change.
// Background merges read only immutable inputs and commit under the mutex;
// deletes that land on a segment while it is being merged are re-applied
// to the merged segment at commit (bitmaps only ever gain bits).
#ifndef TOPPRIV_INDEX_LIVE_LIVE_INDEX_H_
#define TOPPRIV_INDEX_LIVE_LIVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "index/live/segment.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace toppriv::util {
class FileSystem;
}  // namespace toppriv::util

namespace toppriv::index::live {

struct WalRecord;
class WalWriter;

/// One segment as pinned by a snapshot: the immutable segment, the
/// tombstone bitmap frozen at snapshot time (null = no deletes), and the
/// local→dense remap data.
struct SnapshotSegment {
  std::shared_ptr<const Segment> segment;
  /// Tombstone mask parallel to local doc ids (1 = deleted); evaluators
  /// pass it straight to the shared cores' `exclude` parameter.
  std::shared_ptr<const std::vector<char>> deleted;
  /// Dense id of this segment's first live document.
  corpus::DocId dense_base = 0;
  uint32_t live_docs = 0;
  /// deleted_before[l] = number of tombstoned locals < l (null when clean).
  std::shared_ptr<const std::vector<uint32_t>> deleted_before;
  /// Ascending live local ids (dense-rank → local; null when clean).
  std::shared_ptr<const std::vector<corpus::DocId>> live_locals;

  /// Dense id of the LIVE local doc `local`.
  corpus::DocId DenseId(corpus::DocId local) const {
    const uint32_t shift =
        deleted_before == nullptr ? 0 : (*deleted_before)[local];
    return dense_base + (local - shift);
  }
  /// Local id of the dense-rank-th live doc of this segment.
  corpus::DocId LocalId(corpus::DocId rank) const {
    return live_locals == nullptr ? rank : (*live_locals)[rank];
  }
};

/// An immutable, refcounted point-in-time view of the live index. Queries
/// evaluate against a snapshot end to end, so ingest/merge/delete activity
/// after Acquire() is invisible to them. Dense doc ids (0 .. num_documents)
/// number the LIVE documents in stable (ingest) order — the id space a
/// static build of the same collection would assign.
class IndexSnapshot {
 public:
  size_t num_segments() const { return segments_.size(); }
  const SnapshotSegment& segment(size_t s) const { return segments_[s]; }

  /// Live collection aggregates (deleted documents excluded everywhere).
  size_t num_documents() const { return num_documents_; }
  size_t num_terms() const { return num_terms_; }
  uint64_t total_tokens() const { return total_tokens_; }
  double avg_doc_length() const { return avg_doc_length_; }

  /// Global per-term document frequency over the live documents — what
  /// every per-segment evaluation scores with (global-IDF discipline).
  const std::vector<uint32_t>& global_df() const { return global_df_; }
  uint32_t DocFreq(text::TermId term) const {
    return term < global_df_.size() ? global_df_[term] : 0;
  }

  uint32_t DocLength(corpus::DocId dense) const;
  /// The stable (ingest) identity of a dense id, for callers that need to
  /// address a result across snapshots (e.g. to delete it).
  StableId ToStableId(corpus::DocId dense) const;

  /// Statistics of the logical live index; equal field-for-field —
  /// including encoded_bytes, re-priced as ONE delta chain per term across
  /// segment boundaries and tombstone holes — to the static
  /// InvertedIndex::Build(final corpus).ComputeStats().
  IndexStats ComputeStats() const;

  /// Monotonic snapshot sequence number (diagnostics).
  uint64_t generation() const { return generation_; }

 private:
  friend class LiveIndex;
  /// Segment owning dense id `dense` (index into segments_).
  size_t SegmentOf(corpus::DocId dense) const;

  std::vector<SnapshotSegment> segments_;
  std::vector<uint32_t> global_df_;
  size_t num_terms_ = 0;
  size_t num_documents_ = 0;
  uint64_t total_tokens_ = 0;
  double avg_doc_length_ = 0.0;
  uint64_t generation_ = 0;
};

/// When the WAL is fsync'd relative to acknowledging a mutation. "Acked
/// implies durable" holds at different points:
///   kPerBatch   every mutation call syncs before returning — a returned
///               Ingest/Delete survives any crash (slowest, strongest).
///               Syncs GROUP-COMMIT across concurrent callers: each call
///               acks against a synced-sequence watermark, and a caller
///               whose sequence a concurrent leader already made durable
///               returns without issuing its own fsync;
///   kPerRefresh appends are buffered, Refresh() syncs before publishing —
///               a snapshot never shows state a crash could lose;
///   kManual     nothing syncs until SyncWal()/Checkpoint() — fastest,
///               bounded loss of the un-synced suffix.
enum class DurabilityPolicy {
  kPerBatch = 0,
  kPerRefresh = 1,
  kManual = 2,
};

struct LiveIndexOptions {
  /// Auto-seal threshold: the writer seals into a segment once it holds
  /// this many documents (Refresh/Flush seal earlier).
  size_t max_writer_docs = 128;
  /// Tiered merge policy: `merge_factor` adjacent segments in the same
  /// doc-count tier (tier t holds segments with fewer than
  /// max_writer_docs * merge_factor^t live docs... see TierOf) merge into
  /// one.
  size_t merge_factor = 4;
  /// A segment whose tombstoned fraction reaches this ratio is compacted
  /// (rewritten without its deleted docs) on its own.
  double compact_deleted_ratio = 0.5;
  /// Worker pool merges run on; nullptr executes merges inline on the
  /// mutating thread at the commit points (deterministic, test-friendly).
  /// The pool is borrowed and must outlive the LiveIndex. Merge tasks only
  /// Submit — they never ParallelFor — so sharing the serving pool is safe.
  util::ThreadPool* merge_pool = nullptr;
  /// WAL sync discipline for indexes opened with Recover(); an index
  /// constructed directly is in-memory only and never consults this.
  DurabilityPolicy durability = DurabilityPolicy::kPerBatch;
};

/// The mutable, concurrently-queryable index. See file comment.
class LiveIndex {
 public:
  explicit LiveIndex(LiveIndexOptions options = LiveIndexOptions());
  /// Blocks until in-flight background merges drain.
  ~LiveIndex() EXCLUDES(mu_);

  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;

  /// Ingests a batch, returning the assigned stable ids. The batch becomes
  /// visible to NEW snapshots at the next Refresh (auto-sealed segments
  /// included); existing snapshots are never perturbed.
  std::vector<StableId> Ingest(
      const std::vector<std::vector<text::TermId>>& docs) EXCLUDES(mu_);

  /// Tombstones one document. Returns false if the id was never assigned,
  /// was already deleted, or was deleted and since compacted away.
  bool Delete(StableId stable) EXCLUDES(mu_);

  /// Grows the term space (snapshot num_terms / df table width) to at
  /// least `num_terms` — callers ingesting from a corpus sync this with
  /// the corpus vocabulary so stats match a static build even when tail
  /// vocabulary terms never occur in any document.
  void EnsureTermSpace(size_t num_terms) EXCLUDES(mu_);

  /// Seals any buffered writer documents into a segment.
  void Flush() EXCLUDES(mu_);

  /// Publishes all committed mutations: seals the writer (iff it holds
  /// documents — an idle Refresh appends nothing to the WAL and pays no
  /// fsync), rebuilds the current snapshot if anything changed, and
  /// returns it. Publication copies the RUNNING global-df vector
  /// (maintained incrementally at seal/delete/term-space time), so a
  /// rebuild is O(terms + segments), not O(segments × terms); the only
  /// remaining per-publish walk is the O(docs) local→dense remap for
  /// segments whose tombstones changed since their last publish
  /// (micro_bench's LiveRefresh kernel charts the flatness vs segment
  /// count).
  std::shared_ptr<const IndexSnapshot> Refresh() EXCLUDES(mu_, snapshot_mu_);

  /// The current published snapshot (cheap: one shared_ptr copy under the
  /// writer mutex; never null — an empty index has an empty snapshot).
  std::shared_ptr<const IndexSnapshot> Acquire() const EXCLUDES(snapshot_mu_);

  /// Synchronously merges ALL segments (and compacts every tombstone)
  /// into one; flushes first and waits for background merges. The classic
  /// force-merge used by tests and the merge bench.
  void ForceMerge() EXCLUDES(mu_);

  /// Blocks until no background merge is in flight.
  void WaitForMerges() EXCLUDES(mu_);

  /// Sealed segment count (diagnostics; excludes the writer).
  size_t num_segments() const EXCLUDES(mu_);
  /// Next stable id to be assigned (== total documents ever ingested).
  StableId next_stable_id() const EXCLUDES(mu_);

  /// Manifest serialization: header (term space, next stable id, segment
  /// count), then per segment its stable-id list (delta-coded), tombstone
  /// list and hardened InvertedIndex blob. Flushes the writer and drains
  /// merges first. Deserialize rejects hostile blobs — truncation,
  /// overlapping/unordered segment ranges, stable ids beyond the declared
  /// id space, stale tombstone bitmaps (out-of-range, duplicate or
  /// non-ascending local ids, counts exceeding the segment), segment blobs
  /// contradicting the manifest, and trailing bytes — with clean DataLoss
  /// statuses.
  std::string Serialize() EXCLUDES(mu_);
  static util::StatusOr<std::unique_ptr<LiveIndex>> Deserialize(
      const std::string& bytes, LiveIndexOptions options = LiveIndexOptions());

  // ------------------------------------------------------------ durability --
  // A durable LiveIndex writes every mutation through a write-ahead log
  // BEFORE applying it in memory, and periodically collapses the log into
  // a manifest generation (Checkpoint). See wal.h for the on-disk
  // protocol and docs/ARCHITECTURE.md for the recovery walk-through.

  /// What Recover() found on disk (diagnostics for tests and operators).
  struct RecoveryStats {
    /// The committed manifest generation recovery started from.
    uint64_t manifest_generation = 0;
    /// WAL records replayed on top of the manifest.
    uint64_t replayed_records = 0;
    /// True when bytes past the last valid WAL record were discarded.
    bool wal_tail_lost = false;
  };

  /// Opens (or creates) the durable index in `dir`: loads the CURRENT
  /// manifest generation, replays the WAL's longest valid record prefix,
  /// then checkpoints into a fresh generation so the recovered state is
  /// itself committed. A missing directory is a fresh index; a corrupt
  /// manifest or WAL HEADER is DataLoss (a torn WAL TAIL is normal crash
  /// debris and merely truncates the replay). `fs` is borrowed and must
  /// outlive the index.
  static util::StatusOr<std::unique_ptr<LiveIndex>> Recover(
      util::FileSystem* fs, const std::string& dir,
      LiveIndexOptions options = LiveIndexOptions(),
      RecoveryStats* stats = nullptr);

  /// Writes a manifest generation (tmp + fsync + rename), starts a fresh
  /// WAL, flips CURRENT, and deletes the previous generation's files.
  /// After OK, recovery no longer needs any pre-checkpoint WAL record.
  util::Status Checkpoint() EXCLUDES(mu_);

  /// Syncs buffered WAL appends (the kManual policy's durability point).
  util::Status SyncWal() EXCLUDES(mu_);

  /// True when this index was opened with Recover().
  bool durable() const EXCLUDES(mu_);
  /// False after a WAL/checkpoint I/O failure: the index refuses further
  /// mutations (queries still work) so memory can never run ahead of what
  /// recovery could reconstruct. wal_status() carries the current error
  /// (Ok again once Repair() succeeds; last_error() stays sticky).
  bool healthy() const EXCLUDES(mu_);
  util::Status wal_status() const EXCLUDES(mu_);

  // ----------------------------------------------------------- self-healing --
  // Health state machine, locked bit-parity with recovery semantics:
  //
  //             WAL append/sync or checkpoint I/O failure
  //     Healthy ─────────────────────────────────────────▶ Degraded
  //        ▲     reads: current snapshots       reads: LAST published
  //        │     mutations: applied                    snapshot (unchanged)
  //        │                                    mutations: kUnavailable
  //        └───────────────────────────────────────────────────┘
  //            Repair(): retry w/ backoff → fresh WAL generation,
  //            re-checkpoint, error cleared
  //
  // Degraded is exactly "wal_error_ is set". The WAL-first discipline makes
  // repair sound WITHOUT replay: a failed append was never applied, so at
  // every instant memory holds precisely the mutations whose appends
  // succeeded — the same state recovery would reconstruct from the log.
  // Repair therefore just re-checkpoints memory into generation+1 (fresh
  // manifest, fresh empty WAL, CURRENT flip), after which the on-disk image
  // and the in-memory image are bit-identical by the same argument the
  // Checkpoint/Recover round-trip tests lock down. Acked⊆durable stays
  // one-directional: an applied-but-never-acked kPerBatch mutation becoming
  // durable through the repair checkpoint is allowed (the caller saw a
  // failure and may retry; deletes are idempotent, re-ingest is the
  // caller's dedup problem exactly as with a crash between fsync and ack).

  /// Healthy = accepting mutations; Degraded = serving reads from the last
  /// published snapshot, refusing mutations with kUnavailable.
  enum class Health { kHealthy = 0, kDegraded = 1 };
  Health health() const EXCLUDES(mu_);

  /// The most recent WAL/checkpoint error ever recorded — STICKY: unlike
  /// wal_status(), a successful Repair() does not clear it, so operators
  /// and tests can see WHY the index degraded after it recovered. Ok iff
  /// the index never degraded.
  util::Status last_error() const EXCLUDES(mu_);

  /// Status-typed mutation surface for callers that need to distinguish
  /// "degraded, try later" (kUnavailable, message carries the recorded WAL
  /// error) from a plain no-op. Semantics otherwise identical to
  /// Ingest/Delete (same WAL-first logging, same group-commit ack).
  util::StatusOr<std::vector<StableId>> IngestChecked(
      const std::vector<std::vector<text::TermId>>& docs) EXCLUDES(mu_);
  /// kUnavailable when degraded; kNotFound when the id was never assigned,
  /// already deleted, or compacted away; Ok when the tombstone landed.
  util::Status DeleteChecked(StableId stable) EXCLUDES(mu_);

  /// Drives Degraded → Healthy: up to policy.max_attempts re-checkpoints
  /// (each rotating to a fresh WAL generation), sleeping the policy's
  /// deterministic backoff on `clock` (Clock::Real() by default; tests
  /// pass a ManualClock so repair is instant) between attempts. The writer
  /// mutex is RELEASED during each backoff sleep, so reads — which only
  /// touch snapshot_mu_ — keep serving throughout. Returns Ok once healthy
  /// (trivially, when already healthy), FailedPrecondition on an in-memory
  /// index, or the last commit error when every attempt failed (the index
  /// stays Degraded and Repair can be called again).
  util::Status Repair(const util::RetryPolicy& policy = util::RetryPolicy(),
                      util::Clock* clock = nullptr) EXCLUDES(mu_);
  /// Logical mutation clock: sequence number the NEXT logged mutation
  /// would carry == total mutations ever logged (0 for in-memory indexes).
  uint64_t wal_sequence() const EXCLUDES(mu_);
  /// Current manifest/WAL generation (0 for in-memory indexes).
  uint64_t wal_generation() const EXCLUDES(mu_);

 private:
  /// One sealed segment plus its mutable bookkeeping. `deleted` is
  /// copy-on-write: Delete() replaces the pointer with an augmented copy,
  /// so snapshots holding the old pointer are isolated. The two remap
  /// caches are derived from `deleted` and invalidated on every delete;
  /// per-term live df is no longer cached per entry — the index maintains
  /// one RUNNING global-df vector instead (see running_df_).
  struct Entry {
    std::shared_ptr<const Segment> segment;
    std::shared_ptr<const std::vector<char>> deleted;
    uint32_t num_deleted = 0;
    uint64_t deleted_tokens = 0;
    bool merging = false;
    std::shared_ptr<const std::vector<uint32_t>> deleted_before;
    std::shared_ptr<const std::vector<corpus::DocId>> live_locals;
  };
  /// Immutable inputs a merge captures under the lock.
  struct MergeInput {
    std::shared_ptr<const Segment> segment;
    std::shared_ptr<const std::vector<char>> deleted;
  };

  void FlushLocked() REQUIRES(mu_);
  /// Delete's post-logging body: tombstones the doc and maintains the
  /// running aggregates. Split out so Delete can ack durability (group
  /// commit) after releasing mu_.
  bool DeleteLocked(StableId stable) REQUIRES(mu_);
  /// Bumps the mutation clock; every state change under mu_ goes through
  /// here so snapshot publication can detect staleness.
  void MarkDirtyLocked() REQUIRES(mu_);
  /// Publishes a snapshot of the current state: captures a plan (cheap
  /// shared_ptr copies plus an O(terms) copy of the running df vector)
  /// under mu_, UNLOCKS for the remap-cache fills, relocks, and installs
  /// the result if no newer snapshot won the race (mu_ is held again when
  /// this returns — the analysis tracks the drop/retake through the
  /// body). Readers (Acquire) only ever contend on snapshot_mu_, held for
  /// a pointer swap.
  std::shared_ptr<const IndexSnapshot> PublishLocked()
      REQUIRES(mu_) EXCLUDES(snapshot_mu_);
  /// Fills e's derived remap caches (deleted_before / live_locals) from
  /// its segment and bitmap — pure function of immutable inputs, so
  /// callable with or without mu_ held.
  static void ComputeEntryCaches(Entry& e);
  void WaitForMergesLocked() REQUIRES(mu_);
  /// Scans for merge candidates (tombstone compactions first, then tiered
  /// runs) and either submits them to the pool or executes them inline
  /// (dropping the lock while building).
  void MaybeScheduleMergeLocked() REQUIRES(mu_);
  size_t TierOf(uint64_t live_docs) const;
  /// Builds the merged segment from immutable inputs (lock-free). Null
  /// when every input document is tombstoned.
  static std::shared_ptr<const Segment> BuildMerged(
      const std::vector<MergeInput>& inputs);
  /// Swaps `inputs` for `merged` in the entry list, re-applying deletes
  /// that landed during the build; rebuilds the snapshot and cascades the
  /// merge policy. Runs on merge-pool workers, so it takes mu_ itself.
  void CommitMerge(const std::vector<MergeInput>& inputs,
                   std::shared_ptr<const Segment> merged) EXCLUDES(mu_);

  /// Appends one WAL record for a mutation about to be applied. False =
  /// the mutation must NOT proceed (in-memory index: trivially true;
  /// unhealthy or failed I/O: false, tragic error recorded). WAL-first:
  /// nothing changes in memory until this returns. Does NOT sync — under
  /// kPerBatch the caller acks through AckDurableThrough after applying,
  /// so concurrent callers' syncs batch (group commit).
  bool LogMutationLocked(WalRecord&& record) REQUIRES(mu_);
  /// Syncs the WAL through the current append sequence if any appended
  /// record is not yet known durable, advancing wal_synced_seq_. On
  /// failure records wal_error_ (the index turns unhealthy).
  util::Status SyncWalLocked() REQUIRES(mu_);
  /// Group-commit ack point: true iff `ack_seq` is durable and the index
  /// healthy. A follower whose sequence a concurrent leader (or a
  /// checkpoint) already synced returns without touching the file; the
  /// first caller past the watermark becomes the leader and fsyncs once
  /// for everything appended so far.
  bool AckDurableThrough(uint64_t ack_seq) EXCLUDES(mu_);
  /// Folds a freshly sealed segment's postings into the running global-df
  /// and doc/token aggregates.
  void AddSegmentStatsLocked(const Segment& segment) REQUIRES(mu_);
  /// Serialization body shared by Serialize and Checkpoint; the writer
  /// must already be sealed and merges drained.
  std::string SerializeLocked() const REQUIRES(mu_);
  util::Status CheckpointLocked() REQUIRES(mu_);
  /// The checkpoint WORK (flush, drain merges, serialize, commit the next
  /// generation, sweep stale files) with NO health gate: unlike
  /// CheckpointLocked it neither consults nor records wal_error_, so the
  /// repair path can drive it while the index is Degraded. Callers own the
  /// health bookkeeping around it.
  util::Status RecommitLocked() REQUIRES(mu_);
  /// Records a WAL/checkpoint failure: sets the live error (degrading the
  /// index) and the sticky last_error_.
  void RecordWalErrorLocked(const util::Status& s) REQUIRES(mu_);
  /// The checkpoint commit sequence (manifest tmp+rename, fresh WAL,
  /// CURRENT flip). A named member rather than a lambda so the capability
  /// analysis can see it runs under mu_ (the analysis does not propagate
  /// held locks into lambda bodies).
  util::Status CommitGenerationLocked(uint64_t next_gen,
                                      const std::string& blob) REQUIRES(mu_);

  LiveIndexOptions options_;
  /// The writer mutex: every mutation serializes on it. Lock order: mu_
  /// strictly before snapshot_mu_ (PublishLocked); never the reverse.
  mutable util::Mutex mu_ ACQUIRED_BEFORE(snapshot_mu_);
  util::CondVar merges_done_{&mu_};
  size_t merges_in_flight_ GUARDED_BY(mu_) = 0;
  bool closing_ GUARDED_BY(mu_) = false;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  SegmentWriter writer_ GUARDED_BY(mu_){0};
  size_t num_terms_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool dirty_ GUARDED_BY(mu_) = false;
  /// Bumped on every state change (MarkDirtyLocked); a snapshot plan
  /// captures its value to detect concurrent mutations and lose publish
  /// races to newer plans.
  uint64_t mutation_seq_ GUARDED_BY(mu_) = 1;
  uint64_t published_seq_ GUARDED_BY(mu_) = 0;
  /// Running live-collection aggregates, maintained incrementally: seal
  /// adds the sealed segment's stats, Delete subtracts the doc's (via the
  /// segment's doc→terms forward map), merge commits are df-neutral (the
  /// live doc set is identical across the swap). Invariant: equal to
  /// re-aggregating entries_ from scratch; IndexSnapshot::ComputeStats's
  /// per-term length cross-check validates it in every parity test.
  std::vector<uint32_t> running_df_ GUARDED_BY(mu_);
  uint64_t running_live_docs_ GUARDED_BY(mu_) = 0;
  uint64_t running_live_tokens_ GUARDED_BY(mu_) = 0;
  /// Guards ONLY current_, so Acquire never waits behind snapshot
  /// construction or merge commits. Lock order: mu_ before snapshot_mu_.
  mutable util::Mutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> current_ GUARDED_BY(snapshot_mu_);

  // Durability state (fs_ == nullptr means in-memory only). All of it is
  // written under mu_ (Recover locks while attaching) and consulted by the
  // WAL-first mutation path, which already holds mu_.
  util::FileSystem* fs_ GUARDED_BY(mu_) = nullptr;
  std::string dir_ GUARDED_BY(mu_);
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  uint64_t wal_generation_ GUARDED_BY(mu_) = 0;
  uint64_t wal_seq_ GUARDED_BY(mu_) = 0;
  /// Group-commit watermark: sequences <= this are known crash-durable
  /// (covered by an fsync of the current WAL or by a committed manifest
  /// generation). kPerBatch acks compare against it to free-ride on a
  /// concurrent leader's sync.
  uint64_t wal_synced_seq_ GUARDED_BY(mu_) = 0;
  util::Status wal_error_ GUARDED_BY(mu_);
  /// Sticky copy of the last wal_error_ ever recorded; survives Repair().
  util::Status last_error_ GUARDED_BY(mu_);
};

/// Streams corpus documents [begin, end) into `live` in `batch_size`-doc
/// batches, publishing (Refresh) after every batch — the one ingest
/// discipline shared by the serving bench's writer thread, the mixed-phase
/// tests, the ingest microbenchmark and the experiment fixture.
void StreamCorpus(const corpus::Corpus& corpus, size_t begin, size_t end,
                  size_t batch_size, LiveIndex* live);

}  // namespace toppriv::index::live

#endif  // TOPPRIV_INDEX_LIVE_LIVE_INDEX_H_
