// TopPriv serving benchmark: one workload, one seed, one measured window.
//
//   toppriv_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --state-dir <dir> [--spin-us <x>]
//
// perfbench/run.py builds this binary and runs it. Every fixed setting of
// a workload (rates, SLO, threads, durability, sizes) is a constant below.
//
// Workloads (see perfbench/README.md for why each exists):
//   protect_closed  closed loop: client threads run user sessions of
//                   distinct genuine queries, each cycle Protect() then v
//                   Evaluate() calls on the static TAAT engine.
//   protect_open    SessionDriver::RunOpenLoop: Poisson arrivals at a fixed
//                   nominal rate through the admission gate, then a ladder
//                   of fixed rates for the highest rate within the SLO.
//   engine_replay   the engine-visible stream of cycles protected before
//                   the window, replayed closed loop on the static engine.
//   live_mixed      a writer streams the corpus tail into a durable
//                   LiveIndex at a fixed rate while SessionDriver::Run
//                   sessions read through a LiveSearchEngine.
//
// Every workload: untimed model priming, timed set-ups (see main), an
// untimed warm-up, then the window. --trace 0 prints
// the end-to-end metrics; --trace 1 runs the window twice, untraced then
// traced, and prints the per-layer metrics of the traced one (its
// trace.overhead_frac compares the two). Output checks run after the
// windows and are never timed. The last stdout line is one JSON object.
//
// Threads: every workload keeps at most four busy threads, counting the
// benchmark's own client, arrival and writer threads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus/workload.h"
#include "experiments/fixture.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "topicmodel/inference.h"
#include "toppriv/ghost_generator.h"
#include "toppriv/session.h"
#include "util/filesystem.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace toppriv;
using Clock = std::chrono::steady_clock;
using Query = std::vector<text::TermId>;

namespace {

// ------------------------------------------------------ fixed settings --

// Fixed inputs, the same for every workload and seed: the synthetic corpus,
// its index, the LDA100 model and the paper's 150-query workload.
constexpr size_t kCorpusDocs = 1500;
constexpr double kCorpusDocLen = 100;
constexpr size_t kCorpusTailVocab = 3000;
constexpr size_t kPaperQueries = 150;
constexpr size_t kLdaTopics = 100;
constexpr size_t kLdaIterations = 100;
constexpr size_t kTopK = 10;
// Set-ups per group for setup_s (see main; one takes about 0.06 s).
constexpr size_t kSetupRepeats = 5;
// A window is measured as this many equal slices (see Medians).
constexpr size_t kSlices = 10;
// A query pool holds room for this many times the fastest rate seen so far
// before each slice (see QueryPool).
constexpr double kPoolMargin = 4;

// protect_closed.
constexpr size_t kClosedThreads = 3;
constexpr size_t kClosedCyclesPerSession = 20;
constexpr size_t kClosedWarmupSessions = 40;
constexpr size_t kClosedCheckSessions = 4;

// protect_open: kOpenWorkers workers plus the driver's arrival thread.
constexpr size_t kOpenWorkers = 3;
constexpr size_t kOpenSessions = 16;
constexpr double kOpenWarmupS = 0.5;
// The nominal rate, about half the max rate in SLO, is measured for half of
// the window as kOpenNominalCalls RunOpenLoop calls; the ladder follows.
constexpr double kOpenNominalRate = 1000;
constexpr size_t kOpenNominalCalls = 5;
// SLO: p99 from scheduled arrival within 10 ms, at most 1% missed.
constexpr double kSloP99Ms = 10;
constexpr double kSloMaxMissedFrac = 0.01;
// Ladder rung i offers kOpenLadderStart * kOpenLadderStep^i cycles/s (i may
// be negative), kOpenLadderCalls calls of kOpenLadderCallS each. The start
// sits below the max rate in SLO (about 2,000 cycles/s on a 4-vCPU host),
// so that few rungs are spent where the SLO is surely met.
constexpr double kOpenLadderStart = 1500;
constexpr double kOpenLadderStep = 1.1;
constexpr size_t kOpenLadderCalls = 3;
constexpr double kOpenLadderCallS = 1.2;
// Only a bound on the run time: a walk still going after this long stops
// (and says so). Passing rungs take 3.6 s each, so a walk up reaches about
// 13 times kOpenLadderStart first.
constexpr double kOpenLadderBudgetS = 100;
constexpr size_t kOpenQueueDepth = 64;
constexpr double kOpenDegradedWatermark = 0.75;
constexpr double kOpenDeadlineMs = 100;

// engine_replay: the paper sessions protected kReplayRounds times (600
// cycles) before the window.
constexpr size_t kReplayThreads = 3;
constexpr size_t kReplaySessions = 16;
constexpr size_t kReplayRounds = 4;
constexpr size_t kReplayWarmupPasses = 20;

// live_mixed: kLiveReaders readers plus the writer thread. The writer
// streams the corpus tail after kLiveUpfrontDocs, spread evenly over the
// window, in kLiveBatchDocs-doc DurabilityPolicy::kPerBatch batches.
constexpr size_t kLiveReaders = 2;
constexpr size_t kLiveUpfrontDocs = 300;
constexpr size_t kLiveBatchDocs = 1;
constexpr size_t kLiveMaxWriterDocs = 128;
constexpr size_t kLiveMergeFactor = 4;
constexpr size_t kLiveSessionsPerBatch = 48;
constexpr size_t kLiveCyclesPerSession = 4;
static_assert(kLiveUpfrontDocs < kCorpusDocs, "live_mixed needs a corpus tail");

// ------------------------------------------------------------- helpers --

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  return v[std::min(v.size() - 1, static_cast<size_t>(rank + 0.5))];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Fmt(const char* fmt, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// Distinct 64-bit streams derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashResults(uint64_t h, const std::vector<search::ScoredDoc>& docs) {
  h = util::Fnv1aStep(h, docs.size());
  for (const search::ScoredDoc& d : docs) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d.score, sizeof(bits));
    h = util::Fnv1aStep(util::Fnv1aStep(h, d.doc), bits);
  }
  return h;
}

uint64_t HashQuery(uint64_t h, const Query& q) {
  h = util::Fnv1aStep(h, q.size());
  for (text::TermId t : q) h = util::Fnv1aStep(h, t);
  return h;
}

// Resident memory of this process (VmRSS) in MiB, after free heap pages
// are returned to the OS: what the program holds, without the allocator's
// timing-dependent slack (the high-water mark varied by 15% between runs).
double RssMb() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  util::FileSystem* fs = util::GetRealFileSystem();
  uint64_t total = 0;
  if (auto names = fs->List(dir); names.ok()) {
    for (const std::string& name : *names) {
      std::ifstream f(dir + "/" + name, std::ios::binary | std::ios::ate);
      if (f) total += static_cast<uint64_t>(f.tellg());
    }
  }
  return total;
}

void WipeDir(const std::string& dir) {
  util::FileSystem* fs = util::GetRealFileSystem();
  if (auto names = fs->List(dir); names.ok()) {
    for (const std::string& name : *names) fs->Remove(dir + "/" + name);
  }
  if (!util::MakeDirs(dir).ok()) Die("cannot create " + dir);
}

// Spins the calling thread for `us` microseconds (sensitivity injection).
void Spin(double us) {
  const Clock::time_point until =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(us * 1e3));
  while (Clock::now() < until) {
  }
}

// One timed event of a window: when it started (seconds into the window),
// how long it took, and the protected cycles and engine queries it carried.
struct Event {
  float start_s = 0, seconds = 0, cycles = 0, queries = 0;
};

// One thread's events of a slice. Its buffer is kept from slice to slice
// and freed, with the benchmark's other inputs, before rss_mb is read.
class Events {
 public:
  void Clear() { v_.clear(); }
  void Add(double start_s, double seconds, double cycles, double queries) {
    v_.push_back(Event{static_cast<float>(start_s), static_cast<float>(seconds),
                       static_cast<float>(cycles), static_cast<float>(queries)});
  }
  double Seconds() const {
    double t = 0;
    for (const Event& e : v_) t += e.seconds;
    return t;
  }
  static std::vector<Event> Merge(const std::vector<Events>& per) {
    std::vector<Event> out;
    for (const Events& p : per) out.insert(out.end(), p.v_.begin(), p.v_.end());
    return out;
  }

 private:
  std::vector<Event> v_;
};

// Throughput and latency of one slice of a window (or their medians). The
// tail is the p99, on live_mixed the write p90 (see LiveMixed).
struct WindowFigures {
  double cycles_per_s = 0, queries_per_s = 0, p50_s = 0, tail_s = 0;
};

// A slice's figures from its events: cycles and queries per second over
// [0, window_s), an event that runs past the end counted pro rata, and
// latency percentiles over its events.
WindowFigures SliceFigures(const std::vector<Event>& events, double window_s) {
  double cycles = 0, queries = 0;
  std::vector<double> lat;
  for (const Event& e : events) {
    const double end = e.start_s + e.seconds;
    const double share =
        end <= window_s || e.seconds <= 0 ? 1.0
                                          : std::max(0.0, window_s - e.start_s) / e.seconds;
    cycles += e.cycles * share;
    queries += e.queries * share;
    lat.push_back(e.seconds);
  }
  return {cycles / window_s, queries / window_s, Percentile(lat, 0.50),
          Percentile(lat, 0.99)};
}

// Registry counters/histograms, read from MetricsRegistry::Snap().
struct Registry {
  util::MetricsRegistry::Snapshot snap;
  uint64_t Counter(const std::string& name) const {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }
  const util::Histogram::Snapshot* Hist(const std::string& name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return &h.snap;
    }
    return nullptr;
  }
  double HistSum(const std::string& name) const {
    const auto* h = Hist(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->sum);
  }
  double HistCount(const std::string& name) const {
    const auto* h = Hist(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->count);
  }
};

// ----------------------------------------------------------- arguments --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string state_dir;
  double spin_us = 0.0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag without value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--state-dir") {
      a.state_dir = value;
    } else if (flag == "--spin-us") {
      a.spin_us = std::strtod(value.c_str(), nullptr);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.state_dir.empty()) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1 "
        "--state-dir D [--spin-us X]");
  }
  return a;
}

// Medians over a window's slices of each figure. A window is measured as
// kSlices equal slices so that a stall of the shared host spoils one slice
// rather than the run's reading.
WindowFigures Medians(const std::vector<WindowFigures>& slices) {
  std::vector<double> c, q, p50, p99;
  for (const WindowFigures& f : slices) {
    c.push_back(f.cycles_per_s);
    q.push_back(f.queries_per_s);
    p50.push_back(f.p50_s);
    p99.push_back(f.tail_s);
  }
  return {Median(c), Median(q), Median(p50), Median(p99)};
}

std::string SliceNote(const std::vector<WindowFigures>& slices) {
  std::string out = "cycles/s per slice:";
  for (const WindowFigures& f : slices) out += " " + Fmt("%.0f", f.cycles_per_s);
  return out;
}

// ------------------------------------------------------ engine wrapper --

// Forwarding QueryEngine decorator in front of the engine under test. It
// is always in the path, so traced and untraced runs pay the same
// forwarding; when tracing it times every evaluation and keeps the
// engine-visible query stream, and --spin-us makes it spin before each
// evaluation (the benchmark's sensitivity check).
class TimingEngine final : public search::QueryEngine {
 public:
  TimingEngine(search::QueryEngine* inner, double spin_us)
      : inner_(inner), spin_us_(spin_us), id_(next_id_.fetch_add(1)) {}

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  // Swaps the engine under test; only while no evaluation is in flight.
  void set_inner(search::QueryEngine* inner) { inner_ = inner; }

  std::vector<search::ScoredDoc> Search(const Query& terms, size_t k,
                                        uint64_t cycle_id) override {
    return inner_->Search(terms, k, cycle_id);
  }

  std::vector<search::ScoredDoc> Evaluate(const Query& terms,
                                          size_t k) const override {
    if (spin_us_ > 0.0) Spin(spin_us_);
    ++LocalBuffer()->count;
    if (!tracing_.load(std::memory_order_relaxed)) {
      return inner_->Evaluate(terms, k);
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<search::ScoredDoc> out = inner_->Evaluate(terms, k);
    Record(terms, Seconds(t0, Clock::now()));
    return out;
  }

  util::StatusOr<std::vector<search::ScoredDoc>> EvaluateWithOptions(
      const Query& terms, size_t k,
      const search::QueryOptions& options) const override {
    if (spin_us_ > 0.0) Spin(spin_us_);
    ++LocalBuffer()->count;
    if (!tracing_.load(std::memory_order_relaxed)) {
      return inner_->EvaluateWithOptions(terms, k, options);
    }
    const Clock::time_point t0 = Clock::now();
    auto out = inner_->EvaluateWithOptions(terms, k, options);
    Record(terms, Seconds(t0, Clock::now()));
    return out;
  }

  const search::QueryLog& query_log() const override {
    return inner_->query_log();
  }
  search::QueryLog& mutable_query_log() override {
    return inner_->mutable_query_log();
  }
  const corpus::Corpus& corpus() const override { return inner_->corpus(); }
  const search::Scorer& scorer() const override { return inner_->scorer(); }
  search::EvalStrategy eval_strategy() const override {
    return inner_->eval_strategy();
  }

  // Evaluations since the last call (traced or not). This and the Take*
  // calls below run only while no evaluation is in flight.
  uint64_t TakeCount() {
    uint64_t n = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) {
      n += b->count;
      b->count = 0;
    }
    return n;
  }
  std::vector<double> TakeSeconds() {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) {
      out.insert(out.end(), b->seconds.begin(), b->seconds.end());
      b->seconds.clear();
    }
    return out;
  }
  std::vector<Query> TakeStream() {
    std::vector<Query> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) {
      for (Query& q : b->stream) out.push_back(std::move(q));
      b->stream.clear();
    }
    return out;
  }

 private:
  struct Buffer {
    uint64_t count = 0;
    std::vector<double> seconds;
    std::vector<Query> stream;
  };
  static constexpr size_t kStreamCapPerThread = 50000;

  void Record(const Query& terms, double seconds) const {
    Buffer* b = LocalBuffer();
    b->seconds.push_back(seconds);
    if (b->stream.size() < kStreamCapPerThread) b->stream.push_back(terms);
  }

  Buffer* LocalBuffer() const {
    thread_local uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      owner = id_;
    }
    return buffer;
  }

  search::QueryEngine* inner_;
  const double spin_us_;
  const uint64_t id_;
  std::atomic<bool> tracing_{false};
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
  static std::atomic<uint64_t> next_id_;
};

std::atomic<uint64_t> TimingEngine::next_id_{1};

// -------------------------------------------------------------- set-up --

// Everything an operator builds before serving: corpus, index, LDA model
// (loaded from the benchmark's own cache), inferencer, engine, the shared
// ghost-word CDF table or the SessionDriver with its pool, and for
// live_mixed the durable LiveIndex with its up-front load.
struct Stack {
  std::unique_ptr<experiments::ExperimentFixture> fixture;
  const topicmodel::LdaModel* model = nullptr;
  std::unique_ptr<topicmodel::LdaInferencer> inferencer;
  std::unique_ptr<search::SearchEngine> engine;
  std::unique_ptr<core::TopicCdfTable> cdfs;
  std::unique_ptr<index::live::LiveIndex> live;
  std::unique_ptr<search::LiveSearchEngine> live_engine;
  std::unique_ptr<TimingEngine> timed;
  std::unique_ptr<serving::SessionDriver> driver;
  size_t upfront_docs = 0;
};

experiments::FixtureConfig MakeFixtureConfig(const Args& a) {
  experiments::FixtureConfig c;
  c.corpus_params.num_docs = kCorpusDocs;
  c.corpus_params.mean_doc_length = kCorpusDocLen;
  c.corpus_params.tail_vocab_size = kCorpusTailVocab;
  // The paper's 150-query workload is a fixed input like the corpus (the
  // generator's default seed); the benchmark seed deals it to sessions and
  // drives the protection, the arrivals and every larger query set.
  c.workload_params.num_queries = kPaperQueries;
  c.lda_iterations = kLdaIterations;
  c.cache_dir = a.state_dir + "/model_cache";
  return c;
}

index::live::LiveIndexOptions LiveOptions() {
  index::live::LiveIndexOptions o;
  o.max_writer_docs = kLiveMaxWriterDocs;
  o.merge_factor = kLiveMergeFactor;
  o.durability = index::live::DurabilityPolicy::kPerBatch;
  return o;
}

std::string WalDir(const Args& a) { return a.state_dir + "/run/wal"; }

serving::DriverOptions DriverOpts(const Args& a, size_t threads) {
  serving::DriverOptions o;
  o.num_threads = threads;
  o.top_k = kTopK;
  o.seed = DeriveSeed(a.seed, 2);
  return o;
}

// (Re)opens the durable live index on a wiped WAL directory, loads the
// up-front documents and puts a LiveSearchEngine over it.
void OpenLive(const Args& a, Stack& s) {
  s.live_engine.reset();
  s.live.reset();
  const corpus::Corpus& corpus = s.fixture->corpus();
  WipeDir(WalDir(a));
  auto recovered = index::live::LiveIndex::Recover(
      util::GetRealFileSystem(), WalDir(a), LiveOptions());
  if (!recovered.ok()) Die("LiveIndex::Recover: " + recovered.status().ToString());
  s.live = std::move(*recovered);
  s.live->EnsureTermSpace(corpus.vocabulary_size());
  s.upfront_docs = kLiveUpfrontDocs;
  index::live::StreamCorpus(corpus, 0, s.upfront_docs,
                            std::max<size_t>(1, s.upfront_docs), s.live.get());
  s.live->Refresh();
  s.live_engine = std::make_unique<search::LiveSearchEngine>(
      corpus, *s.live, search::MakeBm25Scorer(), search::EvalStrategy::kTAAT);
}

std::unique_ptr<Stack> BuildStack(const Args& a) {
  auto s = std::make_unique<Stack>();
  s->fixture = std::make_unique<experiments::ExperimentFixture>(
      MakeFixtureConfig(a));
  const corpus::Corpus& corpus = s->fixture->corpus();
  s->model = &s->fixture->model(kLdaTopics);
  s->inferencer = std::make_unique<topicmodel::LdaInferencer>(*s->model);
  s->engine = std::make_unique<search::SearchEngine>(
      corpus, s->fixture->index(), search::MakeBm25Scorer(),
      search::EvalStrategy::kTAAT);
  const std::string& w = a.workload;
  if (w == "protect_closed" || w == "engine_replay") {
    s->timed = std::make_unique<TimingEngine>(s->engine.get(), a.spin_us);
    s->cdfs = std::make_unique<core::TopicCdfTable>(*s->model);
  } else if (w == "protect_open") {
    s->timed = std::make_unique<TimingEngine>(s->engine.get(), a.spin_us);
    s->driver = std::make_unique<serving::SessionDriver>(
        *s->model, *s->inferencer, *s->timed,
        DriverOpts(a, kOpenWorkers));
  } else if (w == "live_mixed") {
    OpenLive(a, *s);
    s->timed = std::make_unique<TimingEngine>(s->live_engine.get(), a.spin_us);
    s->driver = std::make_unique<serving::SessionDriver>(
        *s->model, *s->inferencer, *s->timed,
        DriverOpts(a, kLiveReaders));
  } else {
    Die("unknown workload " + w);
  }
  return s;
}

// ------------------------------------------------------------ results --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the JSON
  double rss_mb = 0;               // read right after the window

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Check(bool ok, const std::string& what) {
    notes.push_back(std::string(ok ? "check ok:     " : "CHECK FAILED: ") +
                    what);
    correct = correct && ok;
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Genuine queries, all distinct, generated from the seed in chunks (a
// large workload's surface strings would dominate peak memory) and kept
// flat. The pool grows between slices, never while a slice runs, to room
// for kPoolMargin times the fastest rate seen so far (Reserve), so a faster
// program is given more queries rather than a guessed ceiling. Growth adds
// whole chunks, so query i is the same for a seed however the pool grew.
// The pool is freed before rss_mb is read: it is the benchmark's input,
// and its size follows the measured rate.
class QueryPool {
 public:
  QueryPool(const Stack& s, uint64_t seed) : stack_(s), seed_(seed) {
    offsets_.push_back(0);
  }
  size_t size() const { return offsets_.size() - 1; }
  Query Get(size_t i) const {
    return Query(terms_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
                 terms_.begin() + static_cast<std::ptrdiff_t>(offsets_[i + 1]));
  }
  void GrowTo(size_t count) {
    while (size() < count) {
      if (chunk_ > 64 + count / 64) Die("could not generate enough distinct queries");
      corpus::WorkloadParams params;
      params.num_queries = 4096;
      params.seed = DeriveSeed(seed_, chunk_++);
      corpus::WorkloadGenerator gen(stack_.fixture->corpus(),
                                    stack_.fixture->ground_truth(), params);
      for (const corpus::BenchmarkQuery& q : gen.Generate()) {
        if (!seen_.insert(HashQuery(util::kFnv1aOffsetBasis, q.term_ids)).second) {
          continue;
        }
        terms_.insert(terms_.end(), q.term_ids.begin(), q.term_ids.end());
        offsets_.push_back(terms_.size());
      }
    }
  }
  // Grows the pool so that at least kPoolMargin * rate_per_s * seconds
  // queries, and `floor` more, remain after query `next`.
  void Reserve(size_t next, double rate_per_s, double seconds, size_t floor) {
    GrowTo(next + floor + static_cast<size_t>(kPoolMargin * rate_per_s * seconds));
  }

 private:
  const Stack& stack_;
  const uint64_t seed_;
  uint64_t chunk_ = 0;
  std::set<uint64_t> seen_;
  std::vector<text::TermId> terms_;
  std::vector<size_t> offsets_;
};

// Per-layer numbers the traced window gathers.
struct Layers {
  double cycles = 0;          // cycles in the traced window
  double queries = 0;         // engine evaluations in the traced window
  double cycle_s = 0;         // summed cycle service time
  double protect_s = 0;       // summed Protect time
  std::vector<double> eval_s; // per-evaluation engine time
  std::vector<Query> stream;  // engine-visible queries (capped per thread)
  double ghosts = 0;
  Registry reg;
  double untraced_rate = 0;
  double traced_rate = 0;
  // live_mixed
  std::vector<double> ingest_s, refresh_s;
  double batches = 0, docs = 0, wal_bytes = 0, segments_end = 0;
  // protect_open
  double queue_wait_ms = 0, shed_frac = 0, degraded_frac = 0, peak_queue = 0;
  // fixed-set outputs (exactly repeatable for a seed)
  double fixed_cycles = 0, fixed_queries = 0, fixed_met = 0, fixed_exposure = 0;
};

// Times InferQuery over (a prefix of) the captured stream, single thread.
double InferUs(const Stack& s, const std::vector<Query>& stream) {
  if (stream.empty()) return 0.0;
  const size_t n = std::min<size_t>(stream.size(), 3000);
  topicmodel::InferenceWorkspace ws;
  for (size_t i = 0; i < std::min<size_t>(n, 200); ++i) {
    s.inferencer->InferQuery(stream[i], &ws);  // warm the workspace
  }
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) s.inferencer->InferQuery(stream[i], &ws);
  return 1e6 * Seconds(t0, Clock::now()) / static_cast<double>(n);
}

void AddLayerMetrics(const Stack& s, Layers& L, Result& r) {
  const Registry& g = L.reg;
  const double cycles = L.cycles;
  const double inferences = static_cast<double>(g.Counter("lda.inferences"));
  const double infer_us = inferences > 0 ? InferUs(s, L.stream) : 0.0;
  std::set<Query> distinct(L.stream.begin(), L.stream.end());
  const double engine_s = [&] {
    double t = 0;
    for (double x : L.eval_s) t += x;
    return t;
  }();
  // topicmodel
  r.Add("lda.inferences_per_cycle", Ratio(inferences, cycles), "count");
  r.Add("lda.token_sweeps_per_cycle",
        Ratio(static_cast<double>(g.Counter("lda.gibbs_token_sweeps")), cycles),
        "count");
  r.Add("lda.infer_us", infer_us, "us");
  r.Add("lda.ms_per_cycle", Ratio(inferences, cycles) * infer_us / 1e3, "ms");
  r.Add("lda.repeat_input_frac",
        inferences > 0 && !L.stream.empty()
            ? 1.0 - static_cast<double>(distinct.size()) /
                        static_cast<double>(L.stream.size())
            : 0.0,
        "share");
  // toppriv
  r.Add("toppriv.protect_ms_per_cycle", 1e3 * Ratio(L.protect_s, cycles), "ms");
  r.Add("toppriv.ghosts_per_cycle", Ratio(L.ghosts, cycles), "count");
  r.Add("toppriv.accept_ratio", Ratio(L.ghosts, inferences - cycles), "share");
  r.Add("toppriv.met_epsilon2_frac", Ratio(L.fixed_met, L.fixed_cycles), "share");
  r.Add("toppriv.exposure_after_mean", Ratio(L.fixed_exposure, L.fixed_cycles),
        "share");
  // search
  r.Add("search.eval_us_p50", 1e6 * Percentile(L.eval_s, 0.50), "us");
  r.Add("search.eval_us_p99", 1e6 * Percentile(L.eval_s, 0.99), "us");
  r.Add("search.ms_per_cycle", 1e3 * Ratio(engine_s, cycles), "ms");
  r.Add("search.postings_scored_per_query",
        Ratio(static_cast<double>(g.Counter("search.taat.postings_scored")),
              L.queries),
        "count");
  r.Add("search.blocks_decoded_per_query",
        Ratio(static_cast<double>(g.Counter("search.taat.blocks_decoded")),
              L.queries),
        "count");
  r.Add("search.segments_per_query",
        Ratio(g.HistSum("search.segment_fanout_width"),
              g.HistCount("search.segment_fanout_width")),
        "count");
  // index/live
  r.Add("live.ingest_ms_p50", 1e3 * Percentile(L.ingest_s, 0.5), "ms");
  r.Add("live.refresh_ms_p50", 1e3 * Percentile(L.refresh_s, 0.5), "ms");
  r.Add("live.merges", g.HistCount("live.merge_us"), "count");
  r.Add("live.merge_ms_total", g.HistSum("live.merge_us") / 1e3, "ms");
  r.Add("live.segments_end", L.segments_end, "count");
  r.Add("live.wal_fsyncs_per_batch",
        Ratio(static_cast<double>(g.Counter("live.wal.fsyncs")), L.batches),
        "count");
  r.Add("live.wal_bytes_per_doc", Ratio(L.wal_bytes, L.docs), "B");
  // serving
  r.Add("serving.queries_per_cycle", Ratio(L.fixed_queries, L.fixed_cycles),
        "count");
  const double residual_s = L.cycle_s - L.protect_s - engine_s;
  r.Add("serving.residual_ms_per_cycle", 1e3 * Ratio(residual_s, cycles), "ms");
  r.Add("admission.queue_wait_ms", L.queue_wait_ms, "ms");
  r.Add("admission.shed_frac", L.shed_frac, "share");
  r.Add("admission.degraded_frac", L.degraded_frac, "share");
  r.Add("admission.peak_queue_depth", L.peak_queue, "count");
  r.Add("trace.overhead_frac",
        L.untraced_rate > 0 ? 1.0 - L.traced_rate / L.untraced_rate : 0.0,
        "share");
  if (cycles > 0) {
    r.Note("cycle budget (ms/cycle): cycle " +
           Fmt("%.4f", 1e3 * L.cycle_s / cycles) + " = protect " +
           Fmt("%.4f", 1e3 * L.protect_s / cycles) + " + engine " +
           Fmt("%.4f", 1e3 * engine_s / cycles) + " + residual " +
           Fmt("%.4f", 1e3 * residual_s / cycles) + " (residual share " +
           Fmt("%.3f", Ratio(residual_s, L.cycle_s)) + ")");
  }
}

// Starts the traced window: empty registry, empty decorator buffers.
void BeginTrace(Stack& s) {
  util::MetricsRegistry::Default().ResetAll();
  s.timed->TakeSeconds();
  s.timed->TakeStream();
  s.timed->set_tracing(true);
}

void EndTrace(Stack& s, Layers& L) {
  s.timed->set_tracing(false);
  L.reg.snap = util::MetricsRegistry::Default().Snap();
  L.eval_s = s.timed->TakeSeconds();
  L.stream = s.timed->TakeStream();
  L.queries = static_cast<double>(L.eval_s.size());
}

// ------------------------------------------------------ protect_closed --

struct ClosedStats {
  uint64_t cycles = 0, queries = 0, ghosts = 0, met = 0;
  double exposure = 0, protect_s = 0, wall_s = 0;
  bool ran_out = false;
  Events* events = nullptr;  // one per cycle
};

void Accumulate(ClosedStats& into, const ClosedStats& x) {
  into.cycles += x.cycles;
  into.queries += x.queries;
  into.ghosts += x.ghosts;
  into.met += x.met;
  into.exposure += x.exposure;
  into.protect_s += x.protect_s;
  into.wall_s += x.wall_s;
  into.ran_out = into.ran_out || x.ran_out;
}

// One user session of the benchmark's own closed loop: the serving path
// of SessionDriver::Run (a SessionProtector and an Rng stream per session,
// Protect then Evaluate for each query) with a clock around each cycle.
// Returns false if the deadline cut the session short (digest unusable).
bool RunClosedSession(const Args& a, const Stack& s, const QueryPool& pool,
                      size_t session, Clock::time_point start,
                      Clock::time_point deadline, bool bounded, ClosedStats* st,
                      uint64_t* digest) {
  const size_t L = kClosedCyclesPerSession;
  util::Rng rng = util::Rng(DeriveSeed(a.seed, 2)).Fork(session);
  core::SessionOptions opts;
  opts.generator.shared_topic_cdfs = s.cdfs.get();
  core::SessionProtector protector(*s.model, *s.inferencer, core::PrivacySpec(),
                                   opts);
  uint64_t h = util::kFnv1aOffsetBasis;
  for (size_t c = 0; c < L; ++c) {
    const Clock::time_point t0 = Clock::now();
    if (bounded && t0 >= deadline) return false;
    const Query q = pool.Get(session * L + c);
    core::QueryCycle cycle = protector.Protect(q, &rng);
    const Clock::time_point t1 = Clock::now();
    h = util::Fnv1aStep(h, cycle.user_index);
    for (const Query& sub : cycle.queries) {
      h = HashResults(HashQuery(h, sub), s.timed->Evaluate(sub, kTopK));
    }
    const Clock::time_point t2 = Clock::now();
    st->events->Add(Seconds(start, t0), Seconds(t0, t2), 1,
                    static_cast<double>(cycle.queries.size()));
    st->protect_s += Seconds(t0, t1);
    ++st->cycles;
    st->queries += cycle.queries.size();
    st->ghosts += cycle.num_ghosts();
    st->met += cycle.met_epsilon2 ? 1 : 0;
    st->exposure += cycle.exposure_after;
  }
  *digest = h;
  return true;
}

// Runs sessions [first, first + count) — or, if seconds > 0, sessions from
// `first` on until the deadline — on `threads`, thread t recording its
// cycles into events[t]. Per-thread stats are merged; without a deadline
// digests[i] is session first + i's digest. A session needs its queries in
// the pool; a thread that finds none left sets `ran_out` and stops.
ClosedStats RunClosed(const Args& a, const Stack& s, const QueryPool& queries,
                      util::ThreadPool& threads, size_t first, size_t count,
                      double seconds, std::vector<Events>& events,
                      std::vector<uint64_t>* digests, size_t* next_out = nullptr) {
  const size_t nthreads = threads.num_threads();
  std::vector<ClosedStats> per(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    events[t].Clear();
    per[t].events = &events[t];
  }
  std::atomic<size_t> next{first};
  const bool bounded = seconds > 0.0;
  const size_t in_pool = queries.size() / kClosedCyclesPerSession;
  const size_t end = bounded ? in_pool : std::min(in_pool, first + count);
  digests->assign(bounded ? 0 : count, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  threads.ParallelFor(nthreads, [&](size_t t) {
    for (;;) {
      if (bounded && Clock::now() >= deadline) return;
      const size_t sid = next.fetch_add(1);
      if (sid >= end) {
        per[t].ran_out = bounded || sid < first + count;
        return;
      }
      uint64_t d = 0;
      const bool done =
          RunClosedSession(a, s, queries, sid, start, deadline, bounded, &per[t], &d);
      if (!bounded) (*digests)[sid - first] = d;
      if (bounded && !done) return;
    }
  });
  if (next_out != nullptr) *next_out = std::min(next.load(), end);
  ClosedStats all;
  for (ClosedStats& p : per) Accumulate(all, p);
  all.wall_s = Seconds(start, Clock::now());
  return all;
}

void ProtectClosed(const Args& a, Stack& s, Result& r) {
  const size_t L = kClosedCyclesPerSession;
  const uint64_t pool_seed = DeriveSeed(a.seed, 3);
  const double slice_s = a.seconds / static_cast<double>(kSlices);
  util::ThreadPool threads(kClosedThreads);
  std::vector<uint64_t> warm_digests;
  Layers layers;
  bool ran_out = false;
  {
    QueryPool queries(s, pool_seed);
    queries.GrowTo(kClosedWarmupSessions * L);
    std::vector<Events> events(threads.num_threads());

    // Warm-up: a fixed set of sessions; its outputs are the fixed-set checks.
    const ClosedStats warm = RunClosed(a, s, queries, threads, 0, kClosedWarmupSessions,
                                       0.0, events, &warm_digests);
    ran_out = warm.ran_out;
    layers.fixed_cycles = static_cast<double>(warm.cycles);
    layers.fixed_queries = static_cast<double>(warm.queries);
    layers.fixed_met = static_cast<double>(warm.met);
    layers.fixed_exposure = warm.exposure;

    // Window: kSlices slices of distinct sessions after the warm-up set,
    // each slice reported on its own (see Medians). Before each slice the
    // pool makes room for the fastest rate seen so far (see QueryPool).
    double fastest = Ratio(static_cast<double>(warm.cycles), warm.wall_s);
    size_t next = kClosedWarmupSessions;
    std::vector<uint64_t> unused;
    struct Pass {
      std::vector<WindowFigures> slices;
      ClosedStats total;
      double cycle_s = 0;
    };
    auto measure = [&] {
      Pass p;
      for (size_t i = 0; i < kSlices; ++i) {
        queries.Reserve(next * L, fastest, slice_s, threads.num_threads() * L);
        const ClosedStats st =
            RunClosed(a, s, queries, threads, next, 0, slice_s, events, &unused, &next);
        ran_out = ran_out || st.ran_out;
        Accumulate(p.total, st);
        p.slices.push_back(SliceFigures(Events::Merge(events), slice_s));
        fastest = std::max(fastest, p.slices.back().cycles_per_s);
        for (const Events& t : events) p.cycle_s += t.Seconds();
      }
      return p;
    };
    const Pass run = measure();
    const WindowFigures f = Medians(run.slices);
    if (!a.trace) {
      r.attempted = run.total.cycles;
      r.Add("cycles_per_s", f.cycles_per_s, "cycles/s");
      r.Add("engine_qps", f.queries_per_s, "queries/s");
      r.Add("latency_p50_ms", 1e3 * f.p50_s, "ms");
      r.Add("latency_tail_ms", 1e3 * f.tail_s, "ms");
      r.Add("served_frac", 1.0, "share");
      r.Note(SliceNote(run.slices));
      r.Note("distinct genuine queries generated: " + std::to_string(queries.size()));
    } else {
      BeginTrace(s);
      const Pass traced = measure();
      EndTrace(s, layers);
      r.attempted = traced.total.cycles;
      layers.cycles = static_cast<double>(traced.total.cycles);
      layers.ghosts = static_cast<double>(traced.total.ghosts);
      layers.protect_s = traced.total.protect_s;
      layers.cycle_s = traced.cycle_s;
      layers.untraced_rate = f.cycles_per_s;
      layers.traced_rate = Medians(traced.slices).cycles_per_s;
      AddLayerMetrics(s, layers, r);
    }
  }  // the query pool and event buffers are freed here
  if (!a.trace) r.rss_mb = RssMb();
  r.Check(!ran_out, "the query pool held every session the window started");

  // Checks (untimed). The benchmark loop: the first sessions recomputed on
  // one thread give the warm-up's digests. The product path:
  // SessionDriver::Run gives identical per-session digests at 1 and at 4
  // workers, and identical again on a repeat.
  const size_t nc = std::min(kClosedWarmupSessions, kClosedCheckSessions);
  QueryPool queries(s, pool_seed);
  queries.GrowTo(nc * L);
  util::ThreadPool one(1);
  std::vector<uint64_t> seq_digests;
  std::vector<Events> one_events(1);
  RunClosed(a, s, queries, one, 0, nc, 0.0, one_events, &seq_digests);
  bool same = true;
  for (size_t i = 0; i < nc; ++i) same = same && seq_digests[i] == warm_digests[i];
  r.Check(same, "benchmark-loop session digests equal at 1 and " +
                    std::to_string(threads.num_threads()) + " threads");
  std::vector<serving::SessionWorkload> sessions(nc);
  for (size_t i = 0; i < nc; ++i) {
    for (size_t c = 0; c < L; ++c) sessions[i].queries.push_back(queries.Get(i * L + c));
  }
  auto digests_of = [&](size_t threads_n) {
    serving::SessionDriver driver(*s.model, *s.inferencer, *s.engine,
                                  DriverOpts(a, threads_n));
    std::vector<uint64_t> d;
    for (const auto& st : driver.Run(sessions).sessions) d.push_back(st.digest);
    return d;
  };
  const std::vector<uint64_t> d1 = digests_of(1), d4 = digests_of(4),
                              d4b = digests_of(4);
  r.Check(d1 == d4 && d4 == d4b,
          "SessionDriver::Run session digests equal at 1 and 4 workers and on a repeat");
  uint64_t fixed = util::kFnv1aOffsetBasis;
  for (uint64_t d : warm_digests) fixed = util::Fnv1aStep(fixed, d);
  r.Note("fixed-set digest (repeats for a seed): " + std::to_string(fixed));
}

// -------------------------------------------------------- protect_open --

// Fixed-set privacy outputs for the dealt paper sessions: `rounds`
// sequential protection passes, each session of round r on the driver-seed
// stream Fork(r * sessions + i). Collects the protected cycles if asked.
void FixedSetOutputs(const Args& a, const Stack& s,
                     const std::vector<serving::SessionWorkload>& sessions,
                     size_t rounds, Layers& L,
                     std::vector<std::vector<Query>>* cycles) {
  std::unique_ptr<core::TopicCdfTable> local_cdfs;
  if (s.cdfs == nullptr) local_cdfs = std::make_unique<core::TopicCdfTable>(*s.model);
  core::SessionOptions opts;
  opts.generator.shared_topic_cdfs = s.cdfs ? s.cdfs.get() : local_cdfs.get();
  for (size_t i = 0; i < rounds * sessions.size(); ++i) {
    util::Rng rng = util::Rng(DeriveSeed(a.seed, 2)).Fork(i);
    core::SessionProtector protector(*s.model, *s.inferencer,
                                     core::PrivacySpec(), opts);
    for (const Query& q : sessions[i % sessions.size()].queries) {
      core::QueryCycle c = protector.Protect(q, &rng);
      L.fixed_cycles += 1;
      L.fixed_queries += static_cast<double>(c.queries.size());
      L.fixed_met += c.met_epsilon2 ? 1 : 0;
      L.fixed_exposure += c.exposure_after;
      if (cycles != nullptr) cycles->push_back(std::move(c.queries));
    }
  }
}

std::vector<serving::SessionWorkload> PaperSessions(const Args& a, Stack& s,
                                                    size_t num_sessions) {
  std::vector<Query> qs;
  for (const corpus::BenchmarkQuery& q : s.fixture->workload()) {
    qs.push_back(q.term_ids);
  }
  // Session dealing derives from the seed: a seeded shuffle, then deal.
  util::Rng rng(DeriveSeed(a.seed, 4));
  rng.Shuffle(&qs);
  return serving::DealSessions(qs, num_sessions);
}

serving::OpenLoopOptions OpenOpts(double rate, double seconds) {
  serving::OpenLoopOptions o;
  o.arrival_qps = rate;
  o.num_arrivals = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  o.deadline_seconds = kOpenDeadlineMs / 1e3;
  o.admission.max_in_flight = kOpenWorkers;
  o.admission.max_queue_depth = kOpenQueueDepth;
  o.admission.degraded_watermark = kOpenDegradedWatermark;
  return o;
}

// Cycles that did not complete: shed at the gate, or admitted and failed
// (deadline exceeded). RunOpenLoop's own percentiles cover admitted cycles
// only, so the benchmark counts these separately as misses.
double Misses(const serving::OpenLoopReport& rep) {
  return static_cast<double>(rep.shed + (rep.admitted - rep.completed));
}

// One offered rate, measured as `windows` RunOpenLoop calls of `seconds`
// each. Latencies count misses as over any limit: a call with more than 1%
// (50%) of its arrivals missed reads its p99 (p50) as the cycle deadline.
// Percentiles and the miss share are medians over the calls, so a stall of
// the host spoils one call, not the reading; counts are totals.
struct OpenPoint {
  double p50_ms = 0, p99_ms = 0, miss_frac = 0, queries_per_s = 0;
  uint64_t arrivals = 0, misses = 0, shed = 0, admitted = 0, degraded = 0,
           peak_queue = 0;
};

OpenPoint MeasureRate(Stack& s,
                      const std::vector<serving::SessionWorkload>& sessions,
                      double rate, size_t windows, double seconds) {
  const double deadline_ms = kOpenDeadlineMs;
  OpenPoint pt;
  std::vector<double> p50, p99, miss, qps;
  for (size_t w = 0; w < windows; ++w) {
    s.timed->TakeCount();
    const serving::OpenLoopReport rep =
        s.driver->RunOpenLoop(sessions, OpenOpts(rate, seconds));
    const uint64_t evaluations = s.timed->TakeCount();
    const double mf = Ratio(Misses(rep), static_cast<double>(rep.arrivals));
    p50.push_back(mf > 0.5 ? deadline_ms : 1e3 * rep.p50_latency_seconds);
    p99.push_back(mf > 0.01 ? deadline_ms : 1e3 * rep.p99_latency_seconds);
    miss.push_back(mf);
    qps.push_back(Ratio(static_cast<double>(evaluations), rep.wall_seconds));
    pt.arrivals += rep.arrivals;
    pt.misses += static_cast<uint64_t>(Misses(rep));
    pt.shed += rep.shed;
    pt.admitted += rep.admitted;
    pt.degraded += rep.degraded_admissions;
    pt.peak_queue = std::max<uint64_t>(pt.peak_queue, rep.peak_queue_depth);
  }
  pt.p50_ms = Median(p50);
  pt.p99_ms = Median(p99);
  pt.miss_frac = Median(miss);
  pt.queries_per_s = Median(qps);
  return pt;
}

void ProtectOpen(const Args& a, Stack& s, Result& r) {
  const auto sessions = PaperSessions(a, s, kOpenSessions);
  const double nominal = kOpenNominalRate;
  // The nominal phase takes half of the run's seconds, as kOpenNominalCalls
  // RunOpenLoop calls; the ladder rungs follow.
  const size_t windows = kOpenNominalCalls;
  const double window_s = 0.5 * a.seconds / static_cast<double>(windows);
  s.driver->RunOpenLoop(sessions, OpenOpts(nominal, kOpenWarmupS));

  Layers layers;
  if (!a.trace) {
    const OpenPoint nom = MeasureRate(s, sessions, nominal, windows, window_s);
    r.rss_mb = RssMb();
    r.attempted = nom.arrivals;
    r.failed = nom.misses;
    // Ladder of fixed absolute rates, a factor kOpenLadderStep apart, from
    // kOpenLadderStart: up while rungs meet the SLO (p99 within the limit
    // and at most the allowed share missed), down while they miss it, and
    // stopped at the first rung on the other side. A rung misses only if a
    // second measurement of it misses too, so that one slow spell of the
    // shared host does not end the walk early. The capacity interpolates
    // log p99 between the passing and the failing rung.
    const double limit = kSloP99Ms;
    double pass = 0.0, pass_p99 = 0.0, fail = 0.0, fail_p99 = 0.0;
    double rate = kOpenLadderStart;
    std::string rungs;
    const Clock::time_point ladder_start = Clock::now();
    for (;;) {
      if (Seconds(ladder_start, Clock::now()) > kOpenLadderBudgetS) {
        rungs += " (time budget reached)";
        break;
      }
      OpenPoint pt;
      bool ok = false;
      for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
        pt = MeasureRate(s, sessions, rate, kOpenLadderCalls, kOpenLadderCallS);
        ok = pt.miss_frac <= kSloMaxMissedFrac && pt.p99_ms <= limit;
        rungs += " " + Fmt("%.0f", rate) + ":" + Fmt("%.2f", pt.p99_ms) + "ms/" +
                 Fmt("%.3f", pt.miss_frac) + (ok ? "" : "(miss)");
      }
      if (ok) {
        pass = rate;
        pass_p99 = pt.p99_ms;
        if (fail > 0.0) break;
        rate *= kOpenLadderStep;
      } else {
        fail = rate;
        fail_p99 = std::max(pt.p99_ms, limit);
        if (pass > 0.0) break;
        rate /= kOpenLadderStep;
      }
    }
    double best = pass;
    if (pass > 0.0 && fail > 0.0 && pass_p99 > 0.0 && fail_p99 > pass_p99) {
      const double f =
          (std::log(limit) - std::log(pass_p99)) / (std::log(fail_p99) - std::log(pass_p99));
      best += std::clamp(f, 0.0, 1.0) * (fail - pass);
    }
    r.Note("open-loop ladder (rate:p99/miss share):" + rungs);
    r.Note("nominal " + Fmt("%.0f", nominal) + "/s: arrivals " +
           std::to_string(nom.arrivals) + ", shed " + std::to_string(nom.shed) +
           ", failed " + std::to_string(nom.misses - nom.shed) + ", degraded " +
           std::to_string(nom.degraded) + ", peak queue " +
           std::to_string(nom.peak_queue));
    r.Add("cycles_per_s", best, "cycles/s");
    r.Add("engine_qps", nom.queries_per_s, "queries/s");
    r.Add("latency_p50_ms", nom.p50_ms, "ms");
    r.Add("latency_tail_ms", nom.p99_ms, "ms");
    r.Add("served_frac", 1.0 - nom.miss_frac, "share");
  } else {
    const OpenPoint plain = MeasureRate(s, sessions, nominal, windows, window_s);
    util::TraceSink sink(static_cast<size_t>(nominal * window_s * windows * 12 + 1024));
    BeginTrace(s);
    util::TraceSink::SetGlobal(&sink);
    const OpenPoint traced = MeasureRate(s, sessions, nominal, windows, window_s);
    util::TraceSink::SetGlobal(nullptr);
    EndTrace(s, layers);
    r.attempted = traced.arrivals;
    r.failed = traced.misses;
    // Service time per cycle from the driver's own cycle spans; latency
    // (scheduled arrival to done) from its cycle-latency histogram.
    double service_s = 0, spans = 0;
    for (const util::TraceEvent& e : sink.Events()) {
      if (e.name == "serving.open_loop.cycle") {
        service_s += 1e-9 * static_cast<double>(e.end_nanos - e.start_nanos);
        spans += 1;
      }
    }
    const double lat_sum_s = layers.reg.HistSum("serving.cycle_latency_us") / 1e6;
    const double lat_n = layers.reg.HistCount("serving.cycle_latency_us");
    layers.cycles = lat_n;
    layers.cycle_s = service_s * Ratio(lat_n, spans);
    layers.protect_s = layers.reg.HistSum("toppriv.ghost_generation_us") / 1e6;
    layers.ghosts = layers.queries - layers.cycles;
    layers.queue_wait_ms = 1e3 * (Ratio(lat_sum_s, lat_n) - Ratio(service_s, spans));
    layers.shed_frac = Ratio(static_cast<double>(traced.shed),
                             static_cast<double>(traced.arrivals));
    layers.degraded_frac = Ratio(static_cast<double>(traced.degraded),
                                 static_cast<double>(traced.admitted));
    layers.peak_queue = static_cast<double>(traced.peak_queue);
    // Overhead on the open loop: median latency, traced against untraced.
    layers.untraced_rate = Ratio(1.0, plain.p50_ms);
    layers.traced_rate = Ratio(1.0, traced.p50_ms);
    FixedSetOutputs(a, s, sessions, 1, layers, nullptr);
    AddLayerMetrics(s, layers, r);
  }
  // Check: protection is deterministic for a seed — two sequential passes
  // over the dealt sessions give the same cycles.
  Layers p1, p2;
  std::vector<std::vector<Query>> c1, c2;
  FixedSetOutputs(a, s, sessions, 1, p1, &c1);
  FixedSetOutputs(a, s, sessions, 1, p2, &c2);
  r.Check(c1 == c2 && p1.fixed_exposure == p2.fixed_exposure,
          "protected cycles of the dealt sessions repeat exactly");
}

// ------------------------------------------------------- engine_replay --

struct ReplayStats {
  uint64_t cycles = 0, queries = 0, mismatches = 0;
  double cycle_s = 0, wall_s = 0;
};

// Replays `cycles` (each the v queries of one protected cycle) closed loop
// on `threads`: `passes` full passes, or until the deadline if seconds > 0.
// Every result is checked against the sequential reference hashes.
ReplayStats Replay(Stack& s, util::ThreadPool& threads,
                   const std::vector<std::vector<Query>>& cycles,
                   const std::vector<std::vector<uint64_t>>& ref, size_t passes,
                   double seconds, std::vector<Events>& events, size_t* cursor) {
  const size_t k = kTopK;
  const size_t n = threads.num_threads();
  std::vector<ReplayStats> per(n);
  for (Events& e : events) e.Clear();
  const size_t first = *cursor;
  std::atomic<size_t> next{first};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  threads.ParallelFor(n, [&](size_t t) {
    ReplayStats& st = per[t];
    for (;;) {
      const size_t i = next.fetch_add(1);
      const Clock::time_point c0 = Clock::now();
      if (seconds > 0.0 ? c0 >= deadline : i >= first + passes * cycles.size()) return;
      const size_t c = i % cycles.size();
      for (size_t j = 0; j < cycles[c].size(); ++j) {
        const std::vector<search::ScoredDoc> res = s.timed->Evaluate(cycles[c][j], k);
        if (HashResults(util::kFnv1aOffsetBasis, res) != ref[c][j]) ++st.mismatches;
        ++st.queries;
      }
      const double took = Seconds(c0, Clock::now());
      events[t].Add(Seconds(start, c0), took, 1, static_cast<double>(cycles[c].size()));
      st.cycle_s += took;
      ++st.cycles;
    }
  });
  *cursor = next.load();
  ReplayStats all;
  all.wall_s = Seconds(start, Clock::now());
  for (ReplayStats& p : per) {
    all.cycles += p.cycles;
    all.queries += p.queries;
    all.mismatches += p.mismatches;
    all.cycle_s += p.cycle_s;
  }
  return all;
}

void EngineReplay(const Args& a, Stack& s, Result& r) {
  // Input: the engine-visible stream of the dealt paper sessions, protected
  // once here (untimed), with a sequential reference pass on the engine.
  const auto sessions = PaperSessions(a, s, kReplaySessions);
  Layers layers;
  std::vector<std::vector<Query>> cycles;
  FixedSetOutputs(a, s, sessions, kReplayRounds, layers, &cycles);
  std::vector<std::vector<uint64_t>> ref(cycles.size());
  for (size_t c = 0; c < cycles.size(); ++c) {
    for (const Query& q : cycles[c]) {
      ref[c].push_back(HashResults(util::kFnv1aOffsetBasis,
                                   s.engine->Evaluate(q, kTopK)));
    }
  }
  util::ThreadPool threads(kReplayThreads);
  std::vector<Events> events(threads.num_threads());
  size_t cursor = 0;
  uint64_t mismatches = Replay(s, threads, cycles, ref, kReplayWarmupPasses,
                               0.0, events, &cursor)
                            .mismatches;
  // Window: kSlices slices (see Medians).
  const size_t K = kSlices;
  const double slice_s = a.seconds / static_cast<double>(K);
  struct Pass {
    std::vector<WindowFigures> slices;
    ReplayStats total;
  };
  auto measure = [&] {
    Pass p;
    for (size_t i = 0; i < K; ++i) {
      const ReplayStats st = Replay(s, threads, cycles, ref, 0, slice_s, events, &cursor);
      p.slices.push_back(SliceFigures(Events::Merge(events), slice_s));
      p.total.cycles += st.cycles;
      p.total.queries += st.queries;
      p.total.mismatches += st.mismatches;
      p.total.cycle_s += st.cycle_s;
    }
    return p;
  };
  const Pass run = measure();
  mismatches += run.total.mismatches;
  const WindowFigures f = Medians(run.slices);
  if (!a.trace) {
    r.attempted = run.total.queries;
    r.Add("cycles_per_s", f.cycles_per_s, "cycles/s");
    r.Add("engine_qps", f.queries_per_s, "queries/s");
    r.Add("latency_p50_ms", 1e3 * f.p50_s, "ms");
    r.Add("latency_tail_ms", 1e3 * f.tail_s, "ms");
    r.Add("served_frac", 1.0, "share");
    r.Note(SliceNote(run.slices));
    std::vector<Events>().swap(events);  // sized by the measured rate
    r.rss_mb = RssMb();
  } else {
    BeginTrace(s);
    const Pass traced = measure();
    EndTrace(s, layers);
    mismatches += traced.total.mismatches;
    r.attempted = traced.total.queries;
    layers.cycles = static_cast<double>(traced.total.cycles);
    layers.cycle_s = traced.total.cycle_s;
    layers.untraced_rate = f.queries_per_s;
    layers.traced_rate = Medians(traced.slices).queries_per_s;
    AddLayerMetrics(s, layers, r);
  }
  r.Check(mismatches == 0,
          "every replayed result equals the sequential Evaluate pass (" +
              std::to_string(mismatches) + " mismatches)");
}

// ---------------------------------------------------------- live_mixed --

struct WriterStats {
  uint64_t batches = 0, docs_attempted = 0, docs_acked = 0;
  std::vector<double> latency_s, ingest_s, refresh_s;
};

// Streams corpus docs [begin, end) into the live index in `batch`-doc
// batches, batch i due at start + i * batch / rate. Each batch is
// IngestChecked (a kPerBatch WAL sync) and then Refresh()ed; its latency
// runs from its due time to Refresh's return.
void Write(Stack& s, size_t begin, size_t end, double rate,
           Clock::time_point start, WriterStats* w) {
  const size_t batch = kLiveBatchDocs;
  const corpus::Corpus& corpus = s.fixture->corpus();
  std::vector<Query> docs;
  for (size_t d = begin, i = 0; d < end; d += batch, ++i) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    1e9 * static_cast<double>(i * batch) / rate));
    std::this_thread::sleep_until(due);
    docs.clear();
    for (size_t j = d; j < std::min(end, d + batch); ++j) {
      docs.push_back(corpus.documents()[j].tokens);
    }
    const Clock::time_point t0 = Clock::now();
    auto acked = s.live->IngestChecked(docs);
    const Clock::time_point t1 = Clock::now();
    s.live->Refresh();
    const Clock::time_point t2 = Clock::now();
    w->batches += 1;
    w->docs_attempted += docs.size();
    if (acked.ok()) w->docs_acked += acked->size();
    w->latency_s.push_back(Seconds(due, t2));
    w->ingest_s.push_back(Seconds(t0, t1));
    w->refresh_s.push_back(Seconds(t1, t2));
  }
}

struct ReadStats {
  uint64_t cycles = 0, queries = 0, ghosts = 0, met = 0;
  double exposure = 0, protect_s = 0, wall_s = 0;
  bool ran_out = false;
};

// Reader side: SessionDriver::Run over successive batches of sessions
// while `writing` holds (at least one batch), or until the pool has no
// batch left (`ran_out`).
ReadStats Read(Stack& s, const QueryPool& pool, size_t* next_batch,
               const std::atomic<bool>& writing) {
  const size_t per = kLiveSessionsPerBatch;
  const size_t L = kLiveCyclesPerSession;
  ReadStats st;
  const Clock::time_point start = Clock::now();
  do {
    if ((*next_batch + 1) * per * L > pool.size()) {
      st.ran_out = true;
      break;
    }
    std::vector<serving::SessionWorkload> sessions(per);
    for (size_t i = 0; i < per; ++i) {
      for (size_t c = 0; c < L; ++c) {
        sessions[i].queries.push_back(pool.Get((*next_batch * per + i) * L + c));
      }
    }
    ++*next_batch;
    const serving::ServingReport rep = s.driver->Run(sessions);
    for (const serving::SessionStats& ss : rep.sessions) {
      st.cycles += ss.cycles;
      st.queries += ss.queries_submitted;
      st.ghosts += ss.ghosts;
      st.met += ss.met_epsilon2;
      st.exposure += ss.exposure_after_sum;
      st.protect_s += ss.generation_seconds;
    }
  } while (writing.load());
  st.wall_s = Seconds(start, Clock::now());
  return st;
}

// One mixed window: the writer streams [begin, end) at `rate` while the
// readers run; returns reader and writer stats.
std::pair<ReadStats, WriterStats> MixedWindow(Stack& s,
                                              const QueryPool& pool,
                                              size_t* next_batch, size_t begin,
                                              size_t end, double rate) {
  WriterStats w;
  std::atomic<bool> writing{true};
  const Clock::time_point start = Clock::now();
  std::thread writer([&] {
    Write(s, begin, end, rate, start, &w);
    writing.store(false);
  });
  ReadStats rd = Read(s, pool, next_batch, writing);
  writer.join();
  return {rd, w};
}

uint64_t PaperDigest(Stack& s, const search::QueryEngine& engine) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (const corpus::BenchmarkQuery& q : s.fixture->workload()) {
    h = HashResults(h, engine.Evaluate(q.term_ids, kTopK));
  }
  return h;
}

void LiveMixed(const Args& a, Stack& s, Result& r) {
  const size_t total = s.fixture->corpus().num_documents();
  const size_t upfront = s.upfront_docs;
  const size_t batch_queries = kLiveSessionsPerBatch * kLiveCyclesPerSession;
  auto pool = std::make_unique<QueryPool>(s, DeriveSeed(a.seed, 5));
  const double rate = static_cast<double>(total - upfront) / a.seconds;
  const double slice_s = a.seconds / static_cast<double>(kSlices);
  bool ran_out = false;

  // Warm-up: one reader batch before any write; its outputs are the
  // fixed-set checks.
  size_t next_batch = 0;
  std::atomic<bool> idle{false};
  pool->GrowTo(batch_queries);
  const ReadStats warm = Read(s, *pool, &next_batch, idle);
  double fastest = Ratio(static_cast<double>(warm.cycles), warm.wall_s);
  Layers layers;
  layers.fixed_cycles = static_cast<double>(warm.cycles);
  layers.fixed_queries = static_cast<double>(warm.queries);
  layers.fixed_met = static_cast<double>(warm.met);
  layers.fixed_exposure = warm.exposure;

  // Window: the corpus tail in kSlices slices at the fixed write rate. A
  // slice's latency figures are its write p50 and p90 (120 writes a slice,
  // so ten or more lie beyond the p90), reported as medians over slices.
  const size_t K = kSlices;
  struct Pass {
    std::vector<WindowFigures> slices;
    std::vector<double> write_latency_s;
    ReadStats reads;
    WriterStats writes;
  };
  auto measure = [&] {
    Pass p;
    for (size_t i = 0; i < K; ++i) {
      const size_t begin = upfront + (total - upfront) * i / K;
      const size_t end = upfront + (total - upfront) * (i + 1) / K;
      // Room for the fastest reader rate so far (see QueryPool), and for the
      // batch in flight when the writer finishes.
      pool->Reserve(next_batch * batch_queries, fastest, slice_s, 2 * batch_queries);
      const auto [rd, wr] =
          MixedWindow(s, *pool, &next_batch, begin, end, rate);
      ran_out = ran_out || rd.ran_out;
      p.slices.push_back({Ratio(static_cast<double>(rd.cycles), rd.wall_s),
                          Ratio(static_cast<double>(rd.queries), rd.wall_s),
                          Percentile(wr.latency_s, 0.50), Percentile(wr.latency_s, 0.90)});
      fastest = std::max(fastest, p.slices.back().cycles_per_s);
      p.write_latency_s.insert(p.write_latency_s.end(), wr.latency_s.begin(),
                               wr.latency_s.end());
      p.reads.cycles += rd.cycles;
      p.reads.queries += rd.queries;
      p.reads.ghosts += rd.ghosts;
      p.reads.protect_s += rd.protect_s;
      p.writes.batches += wr.batches;
      p.writes.docs_attempted += wr.docs_attempted;
      p.writes.docs_acked += wr.docs_acked;
      p.writes.ingest_s.insert(p.writes.ingest_s.end(), wr.ingest_s.begin(), wr.ingest_s.end());
      p.writes.refresh_s.insert(p.writes.refresh_s.end(), wr.refresh_s.begin(),
                                wr.refresh_s.end());
    }
    return p;
  };
  Pass run = measure();
  if (!a.trace) {
    pool.reset();  // the benchmark's input, sized by the measured rate
    r.rss_mb = RssMb();
  }
  const WindowFigures f = Medians(run.slices);
  uint64_t acked = run.writes.docs_acked;
  r.failed = run.writes.docs_attempted - run.writes.docs_acked;
  if (!a.trace) {
    r.attempted = run.reads.cycles + run.writes.docs_attempted;
    r.Add("cycles_per_s", f.cycles_per_s, "cycles/s");
    r.Add("engine_qps", f.queries_per_s, "queries/s");
    r.Add("latency_p50_ms", 1e3 * f.p50_s, "ms");
    r.Add("latency_tail_ms", 1e3 * f.tail_s, "ms");
    r.Add("served_frac",
          1.0 - Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
          "share");
    r.Note(SliceNote(run.slices));
    r.Note("write latency ms: p90 " + Fmt("%.2f", 1e3 * Percentile(run.write_latency_s, 0.90)) +
           " p99 " + Fmt("%.2f", 1e3 * Percentile(run.write_latency_s, 0.99)) + " max " +
           Fmt("%.2f", 1e3 * Percentile(run.write_latency_s, 1.0)));
    r.Note("writes: " + std::to_string(run.writes.batches) + " batches, ingest p50 " +
           Fmt("%.3f", 1e3 * Percentile(run.writes.ingest_s, 0.5)) + " ms, refresh p50 " +
           Fmt("%.3f", 1e3 * Percentile(run.writes.refresh_s, 0.5)) + " ms, segments " +
           std::to_string(s.live->num_segments()));
  } else {
    // The same window again on a freshly opened index (the readers' driver
    // and warm pool are kept), traced.
    s.timed->set_inner(nullptr);
    OpenLive(a, s);
    s.timed->set_inner(s.live_engine.get());
    pool->Reserve(next_batch * batch_queries, 0.0, 0.0, batch_queries);
    Read(s, *pool, &next_batch, idle);
    const uint64_t wal_before = DirBytes(WalDir(a));
    BeginTrace(s);
    const Pass traced = measure();
    EndTrace(s, layers);
    acked = traced.writes.docs_acked;
    r.attempted = traced.reads.cycles + traced.writes.docs_attempted;
    r.failed += traced.writes.docs_attempted - traced.writes.docs_acked;
    layers.cycles = static_cast<double>(traced.reads.cycles);
    layers.ghosts = static_cast<double>(traced.reads.ghosts);
    layers.protect_s = traced.reads.protect_s;
    layers.cycle_s = layers.reg.HistSum("serving.cycle_latency_us") / 1e6;
    layers.ingest_s = traced.writes.ingest_s;
    layers.refresh_s = traced.writes.refresh_s;
    layers.batches = static_cast<double>(traced.writes.batches);
    layers.docs = static_cast<double>(traced.writes.docs_attempted);
    layers.wal_bytes = static_cast<double>(DirBytes(WalDir(a)) - wal_before);
    layers.segments_end = static_cast<double>(s.live->num_segments());
    layers.untraced_rate = f.cycles_per_s;
    layers.traced_rate = Medians(traced.slices).cycles_per_s;
    AddLayerMetrics(s, layers, r);
  }

  r.Check(!ran_out, "the query pool held every reader batch the window started");
  // Checks (untimed): every acked write is visible, the converged live
  // engine answers the paper workload exactly as the static engine, and so
  // does an index recovered from this run's WAL.
  s.live->WaitForMerges();
  s.live->Refresh();
  const uint64_t want = PaperDigest(s, *s.engine);
  acked += upfront;
  r.Check(acked == total && s.live->Acquire()->num_documents() == acked,
          "all " + std::to_string(acked) + " acked documents visible after Refresh");
  r.Check(PaperDigest(s, *s.live_engine) == want,
          "converged live engine digest equals the static engine's");
  s.driver.reset();
  s.timed.reset();
  s.live_engine.reset();
  s.live.reset();
  auto recovered = index::live::LiveIndex::Recover(util::GetRealFileSystem(),
                                                   WalDir(a), LiveOptions());
  bool recovered_ok = recovered.ok();
  if (recovered_ok) {
    search::LiveSearchEngine engine(s.fixture->corpus(), **recovered,
                                    search::MakeBm25Scorer(),
                                    search::EvalStrategy::kTAAT);
    recovered_ok = (*recovered)->Acquire()->num_documents() == total &&
                   PaperDigest(s, engine) == want;
  }
  r.Check(recovered_ok, "index recovered from the run's WAL gives the same digest");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  Result r;
  // Untimed: train or load the model into the benchmark's cache, so every
  // timed set-up below loads it.
  {
    experiments::ExperimentFixture prime(MakeFixtureConfig(a));
    prime.model(kLdaTopics);
  }
  // setup_s: the median of kSetupRepeats set-ups before the window and as
  // many after the output checks, so that a slow spell of the host spoils
  // one group rather than the reading.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  auto set_up = [&] {
    for (size_t i = 0; i < kSetupRepeats; ++i) {
      stack.reset();
      const Clock::time_point t0 = Clock::now();
      stack = BuildStack(a);
      setups.push_back(Seconds(t0, Clock::now()));
    }
  };
  set_up();
  if (a.workload == "protect_closed") {
    ProtectClosed(a, *stack, r);
  } else if (a.workload == "protect_open") {
    ProtectOpen(a, *stack, r);
  } else if (a.workload == "engine_replay") {
    EngineReplay(a, *stack, r);
  } else if (a.workload == "live_mixed") {
    LiveMixed(a, *stack, r);
  } else {
    Die("workload not implemented: " + a.workload);
  }
  if (!a.trace) {
    set_up();
    r.Add("setup_s", Median(setups), "s");
    r.Add("rss_mb", r.rss_mb, "MiB");
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].name.c_str(), r.metrics[i].value,
                r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
