// machine_scale and machine_hotspot: whole runs of the simulated database
// machine (sim kernel -> hw disks -> txn locks -> machine pipeline ->
// recovery architecture), streamed from an in-process generator.
//
// A round builds a fresh generator source, architecture and Machine
// (set-up), then runs its batch to completion (the timed phase).  The
// simulated machine has no crash-restart path, so restart_ms here is the
// time a cold machine takes to commit its first MPL transactions, and
// schedules_per_s counts simulator event schedules.  Each
// round's inputs come from the run's seed stream; the run ends by running
// round 1's inputs again, whose simulated statistics must repeat exactly.
//
// The traced run adds a timing decorator around the TxnSource and one
// around the RecoveryArch, records the data-disk request stream and the
// reference strings at those boundaries, and replays them through a
// standalone hw::DiskModel and txn::LockManager to price those layers.

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/arch_registry.h"
#include "core/experiment.h"
#include "hw/disk.h"
#include "machine/machine.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/workload.h"

namespace e2e {
namespace {

using dbmr::StrFormat;
using dbmr::machine::Machine;
using dbmr::machine::MachineConfig;
using dbmr::machine::MachineResult;
using dbmr::machine::Placement;
using dbmr::machine::RecoveryArch;
using dbmr::workload::TransactionSpec;
using dbmr::workload::TxnSource;
using dbmr::workload::WorkloadOptions;

/// Transactions per round.  Sized so a round takes about a third of a
/// second on a 4-core x86 host: ramp-up and drain stay a small share of
/// the simulated work, and a run yields dozens of rounds, whose median
/// rides out the host's second-scale speed swings.
constexpr int kScaleTxns = 40000;
constexpr int kHotspotTxns = 10000;

/// Machine + workload shape and the architecture it runs.
struct Shape {
  dbmr::core::ExperimentSetup setup;
  std::string arch;
  std::vector<std::pair<std::string, std::string>> knobs;
};

Shape MakeShape(const std::string& workload, uint64_t seed) {
  Shape s;
  s.setup = dbmr::core::StandardSetup(
      dbmr::core::Configuration::kConvRandom, 1, seed);
  MachineConfig& m = s.setup.machine;
  WorkloadOptions& w = s.setup.workload;
  m.audit = false;
  w.min_pages = 1;
  if (workload == "machine_scale") {
    // The CI scale-smoke shape: locks almost never conflict; the disk
    // queues and the event kernel carry the cost.
    m.num_query_processors = 1000;
    m.cache_frames = 4000;
    m.num_data_disks = 64;
    m.db_pages = 4000000;
    m.mpl = 400;
    w.num_transactions = kScaleTxns;
    w.max_pages = 4;
    s.arch = "logging";
    s.knobs = {{"log-disks", "4"}};
  } else {
    // Zipf-skewed hot set: lock waits, deadlock search, restarts and the
    // shadow page-table path carry the cost.
    m.num_query_processors = 200;
    m.cache_frames = 800;
    m.num_data_disks = 16;
    m.db_pages = 1000000;
    m.mpl = 64;
    w.num_transactions = kHotspotTxns;
    w.max_pages = 8;
    w.zipf_theta = 0.9;
    s.arch = "shadow";
    s.knobs = {{"pt-processors", "2"}, {"pt-buffer", "50"}};
  }
  w.db_pages = m.db_pages;
  return s;
}

/// Totals of an independent drain of the generator, for the output checks.
struct Reference {
  uint64_t txns = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
};

Reference DrainReference(const WorkloadOptions& w) {
  Reference ref;
  auto source = dbmr::workload::MakeGeneratorSource(w);
  TransactionSpec t;
  while (source->Next(&t)) {
    ++ref.txns;
    ref.reads += t.reads.size();
    ref.writes += t.write_set.size();
  }
  return ref;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t n = 0;
  for (uint64_t x : v) n += x;
  return n;
}

double Extra(const MachineResult& r, const std::string& key) {
  auto it = r.extra.find(key);
  return it == r.extra.end() ? 0.0 : it->second;
}

/// Checks a round's result against the independent reference and the
/// properties every run of these conventional-disk shapes must have.
void CheckRound(Outcome* out, const MachineResult& r, const Reference& ref,
                const char* tag) {
  const auto completed = static_cast<uint64_t>(r.completion_ms.count());
  out->Check(completed == ref.txns,
             StrFormat("%s: %llu of %llu transactions completed", tag,
                       static_cast<unsigned long long>(completed),
                       static_cast<unsigned long long>(ref.txns)));
  out->Check(r.total_pages == ref.reads + ref.writes,
             StrFormat("%s: total_pages %llu != reads+writes %llu", tag,
                       static_cast<unsigned long long>(r.total_pages),
                       static_cast<unsigned long long>(ref.reads + ref.writes)));
  out->Check(r.pages_written == ref.writes,
             StrFormat("%s: pages_written %llu != write-set pages %llu", tag,
                       static_cast<unsigned long long>(r.pages_written),
                       static_cast<unsigned long long>(ref.writes)));
  out->Check(Sum(r.data_disk_accesses) == r.pages_read + r.pages_written,
             StrFormat("%s: data-disk accesses %llu != pages read+written",
                       tag,
                       static_cast<unsigned long long>(
                           Sum(r.data_disk_accesses))));
  out->Check(r.pages_read >= ref.reads,
             StrFormat("%s: pages_read below the reference string total", tag));
  out->Check((r.pages_read == ref.reads) == (r.deadlock_restarts == 0),
             StrFormat("%s: re-reads without restarts (or the reverse)", tag));
}

/// The simulated statistics that must not depend on host timing, tracing
/// or the round: equal across rounds and between traced and untraced runs.
std::string SimDigest(const MachineResult& r) {
  return StrFormat(
      "events=%.0f sim_ms=%.6f pages_read=%llu pages_written=%llu "
      "disk_accesses=%llu restarts=%llu ms_per_page=%.9f",
      Extra(r, "sim_events_executed"), r.total_time_ms,
      static_cast<unsigned long long>(r.pages_read),
      static_cast<unsigned long long>(r.pages_written),
      static_cast<unsigned long long>(Sum(r.data_disk_accesses)),
      static_cast<unsigned long long>(r.deadlock_restarts),
      r.exec_time_per_page_ms);
}

// --- Traced run: decorators at the TxnSource and RecoveryArch boundaries --

/// Reference strings captured at the TxnSource boundary, flattened.
struct RefStrings {
  std::vector<size_t> begin{0};  // txn i spans [begin[i], begin[i+1])
  std::vector<uint64_t> pages;
  std::vector<uint8_t> is_write;

  size_t size() const { return begin.size() - 1; }
};

/// Times TxnSource::Next and captures each spec's reference string.
class TimedSource final : public TxnSource {
 public:
  TimedSource(std::unique_ptr<TxnSource> inner, RefStrings* capture)
      : inner_(std::move(inner)), capture_(capture) {}

  bool Next(TransactionSpec* out) override {
    const bool ok = Timed(&next_, [&] { return inner_->Next(out); });
    if (ok) {
      for (uint64_t p : out->reads) {
        capture_->pages.push_back(p);
        capture_->is_write.push_back(out->write_set.count(p) ? 1 : 0);
      }
      capture_->begin.push_back(capture_->pages.size());
    }
    return ok;
  }
  uint64_t total() const override { return inner_->total(); }

  const SpanStat& next_stat() const { return next_; }

 private:
  std::unique_ptr<TxnSource> inner_;
  RefStrings* capture_;
  SpanStat next_;
};

/// One data-disk request seen at the architecture boundary.
struct DiskRef {
  double when;
  int32_t disk;
  dbmr::hw::DiskPageAddr addr;
  bool is_write;
};

/// Bills the architecture's self time: every call into the wrapped arch
/// is a span, and the done/ready continuations it invokes pause the
/// innermost span, so machine work done inside them is not billed to the
/// architecture.  Also records the data-disk request stream.
class TimedArch final : public RecoveryArch {
  struct Frame {
    int64_t start;
    int64_t paused;
  };

  template <class F>
  auto Span(F&& f) {
    frames_.push_back(Frame{NowNs(), 0});
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Close();
    } else {
      auto r = f();
      Close();
      return r;
    }
  }
  void Close() {
    const Frame fr = frames_.back();
    frames_.pop_back();
    self_.Add(NowNs() - fr.start - fr.paused);
  }
  std::function<void()> Resume(std::function<void()> k) {
    return [this, k = std::move(k)] {
      if (frames_.empty()) {
        k();
        return;
      }
      const int64_t t0 = NowNs();
      k();
      frames_.back().paused += NowNs() - t0;
    };
  }
  void Record(const Placement& pl, bool is_write) {
    refs_->push_back(DiskRef{machine_->simulator()->Now(), pl.disk, pl.addr,
                             is_write});
  }


 public:
  TimedArch(std::unique_ptr<RecoveryArch> inner, std::vector<DiskRef>* refs)
      : inner_(std::move(inner)), refs_(refs) {
    frames_.reserve(16);
  }

  std::string name() const override { return inner_->name(); }
  std::string registry_name() const override {
    return inner_->registry_name();
  }
  void Attach(Machine* machine) override {
    machine_ = machine;
    Span([&] { inner_->Attach(machine); });
  }
  void BeforeRead(dbmr::txn::TxnId t, uint64_t page,
                  std::function<void()> done) override {
    auto k = Resume(std::move(done));
    Span([&] { inner_->BeforeRead(t, page, std::move(k)); });
  }
  Placement ReadPlacement(uint64_t page) override {
    const Placement pl = Span([&] { return inner_->ReadPlacement(page); });
    Record(pl, false);
    return pl;
  }
  int ReadTransferPages() const override {
    return inner_->ReadTransferPages();
  }
  dbmr::sim::TimeMs ExtraCpu(dbmr::txn::TxnId t, uint64_t page,
                             bool is_write) override {
    return Span([&] { return inner_->ExtraCpu(t, page, is_write); });
  }
  void CollectRecoveryData(dbmr::txn::TxnId t, uint64_t page,
                           std::function<void()> ready) override {
    auto k = Resume(std::move(ready));
    Span([&] { inner_->CollectRecoveryData(t, page, std::move(k)); });
  }
  void WriteUpdatedPage(dbmr::txn::TxnId t, uint64_t page,
                        std::function<void()> done) override {
    Record(machine_->HomePlacement(page), true);
    auto k = Resume(std::move(done));
    Span([&] { inner_->WriteUpdatedPage(t, page, std::move(k)); });
  }
  void OnCommit(dbmr::txn::TxnId t, std::function<void()> done) override {
    auto k = Resume(std::move(done));
    Span([&] { inner_->OnCommit(t, std::move(k)); });
  }
  void OnRestart(dbmr::txn::TxnId t, std::function<void()> done) override {
    auto k = Resume(std::move(done));
    Span([&] { inner_->OnRestart(t, std::move(k)); });
  }
  void ContributeStats(MachineResult* result) override {
    inner_->ContributeStats(result);
  }

  const SpanStat& self() const { return self_; }

 private:
  std::unique_ptr<RecoveryArch> inner_;
  std::vector<DiskRef>* refs_;
  std::vector<Frame> frames_;
  SpanStat self_;
};

/// Replays the recorded data-disk stream through standalone DiskModels on
/// a fresh simulator, submitting each request at its recorded time.
double ReplayDisks(const std::vector<DiskRef>& refs, const MachineConfig& cfg,
                   uint64_t seed) {
  dbmr::sim::Simulator sim;
  dbmr::Rng rng(seed);
  std::vector<std::unique_ptr<dbmr::hw::DiskModel>> disks;
  for (int i = 0; i < cfg.num_data_disks; ++i) {
    disks.push_back(std::make_unique<dbmr::hw::DiskModel>(
        &sim, StrFormat("replay%d", i), cfg.geometry, cfg.disk_kind,
        rng.Fork()));
  }
  SpanStat submit;
  for (const DiskRef& r : refs) {
    sim.Run(r.when);
    dbmr::hw::DiskRequest req{r.addr, r.is_write, 1, [] {}};
    dbmr::hw::DiskModel* d = disks[static_cast<size_t>(r.disk)].get();
    Timed(&submit, [&] { d->Submit(std::move(req)); });
  }
  sim.Run();
  return submit.MeanNs();
}

struct LockReplay {
  SpanStat acquire;
  SpanStat release_all;
  uint64_t waits = 0;
  uint64_t restarts = 0;
  uint64_t completed = 0;
};

/// Replays the captured reference strings through a standalone
/// LockManager: `mpl` transactions in flight, each requesting its pages in
/// order (exclusive for write-set pages), round-robin; a request denied
/// for deadlock kills the requester, which releases and starts over.
LockReplay ReplayLocks(const RefStrings& refs, int mpl) {
  constexpr size_t kIdle = std::numeric_limits<size_t>::max();
  struct Slot {
    size_t txn = kIdle;
    size_t next = 0;
    bool waiting = false;
  };
  LockReplay out;
  dbmr::txn::LockManager lm;
  std::vector<Slot> slots(static_cast<size_t>(mpl));
  size_t next_txn = 0;
  auto load = [&](Slot* s) {
    s->txn = next_txn < refs.size() ? next_txn++ : kIdle;
    s->next = 0;
  };
  for (Slot& s : slots) load(&s);
  const uint64_t restart_cap = 1000 * static_cast<uint64_t>(refs.size() + 1);
  bool progress = true;
  while (progress && out.restarts < restart_cap) {
    progress = false;
    for (Slot& s : slots) {
      if (s.txn == kIdle || s.waiting) continue;
      progress = true;
      const auto id = static_cast<dbmr::txn::TxnId>(s.txn + 1);
      const size_t pos = refs.begin[s.txn] + s.next;
      if (pos == refs.begin[s.txn + 1]) {
        Timed(&out.release_all, [&] { lm.ReleaseAll(id); });
        ++out.completed;
        load(&s);
        continue;
      }
      const auto mode = refs.is_write[pos] ? dbmr::txn::LockMode::kExclusive
                                           : dbmr::txn::LockMode::kShared;
      Slot* sp = &s;
      const auto res = Timed(&out.acquire, [&] {
        return lm.Acquire(id, refs.pages[pos], mode, [sp] {
          sp->waiting = false;
          ++sp->next;
        });
      });
      switch (res) {
        case dbmr::txn::AcquireResult::kGranted:
          ++s.next;
          break;
        case dbmr::txn::AcquireResult::kWaiting:
          s.waiting = true;
          break;
        case dbmr::txn::AcquireResult::kDeadlock:
          lm.ReleaseAll(id);
          s.next = 0;
          ++out.restarts;
          break;
      }
    }
  }
  out.waits = lm.waits();
  return out;
}

/// Stamps the host time of the machine's (2 * MPL)-th TxnSource::Next.
/// A closed batch admits MPL transactions when it starts and one more at
/// each commit, so that call marks the MPL-th commit: the moment a cold
/// machine has turned over its first full set of transactions.
class RampProbe final : public TxnSource {
 public:
  RampProbe(std::unique_ptr<TxnSource> inner, int mpl)
      : inner_(std::move(inner)), mark_(2 * static_cast<uint64_t>(mpl)) {}

  bool Next(TransactionSpec* out) override {
    if (++calls_ == mark_) mark_ns_ = NowNs();
    return inner_->Next(out);
  }
  uint64_t total() const override { return inner_->total(); }

  /// 0 when the batch is too small to reach the mark.
  int64_t mark_ns() const { return mark_ns_; }

 private:
  std::unique_ptr<TxnSource> inner_;
  uint64_t mark_;
  uint64_t calls_ = 0;
  int64_t mark_ns_ = 0;
};

/// One round: set-up (source, arch, Machine) and the timed run.
struct Round {
  MachineResult result;
  double setup_s = 0;
  double run_s = 0;
  double ramp_s = 0;  // from Run() until the MPL-th commit
};

Round RunRound(const Shape& shape,
               const std::function<std::unique_ptr<RecoveryArch>()>& make_arch) {
  Round round;
  const int64_t t0 = NowNs();
  auto probe = std::make_unique<RampProbe>(
      dbmr::workload::MakeGeneratorSource(shape.setup.workload),
      shape.setup.machine.mpl);
  const RampProbe* ramp = probe.get();
  Machine m(shape.setup.machine, std::move(probe), make_arch());
  const int64_t t1 = NowNs();
  round.result = m.Run();
  const int64_t t2 = NowNs();
  round.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  round.run_s = static_cast<double>(t2 - t1) * 1e-9;
  round.ramp_s = static_cast<double>(ramp->mark_ns() - t1) * 1e-9;
  return round;
}

double MaxDiskHighwater(const MachineResult& r) {
  double hw = 0;
  for (size_t i = 0; i < r.data_disk_accesses.size(); ++i) {
    hw = std::max(hw, Extra(r, StrFormat("data_disk_queue_highwater_%zu", i)));
  }
  return hw;
}

double MeanUtil(const MachineResult& r) {
  double sum = 0;
  for (double u : r.data_disk_util) sum += u;
  return r.data_disk_util.empty()
             ? 0.0
             : sum / static_cast<double>(r.data_disk_util.size());
}

double LogPagesWritten(const MachineResult& r) {
  double n = 0;
  for (const auto& [key, value] : r.extra) {
    if (key.rfind("log_pages_written_", 0) == 0) n += value;
  }
  return n;
}

}  // namespace

Outcome RunMachineWorkload(const RunOptions& opts) {
  Outcome out;
  // Every round draws its own inputs from the run's seed stream, so a run
  // averages over many reference strings rather than one.
  dbmr::Rng round_seeds(opts.seed);
  const uint64_t first_seed = round_seeds.Next();
  const Shape first = MakeShape(opts.workload, first_seed);
  auto factory_or = dbmr::core::MakeSimArchFactory(first.arch, first.knobs);
  if (!factory_or.ok()) {
    out.Check(false, "architecture: " + factory_or.status().ToString());
    return out;
  }
  const auto make_arch = *factory_or;

  if (!opts.trace) {
    Deadline deadline(opts.seconds);
    std::vector<double> setup_s, run_s, tps, ramp_ms, eps;
    std::string first_digest;
    uint64_t restarts = 0;
    bool replay = false;
    for (;;) {
      // After the deadline, round 1's inputs run once more: its simulated
      // statistics must repeat exactly.
      replay = !run_s.empty() && deadline.Passed();
      const Shape shape = run_s.empty() || replay
                              ? first
                              : MakeShape(opts.workload, round_seeds.Next());
      const Reference ref = DrainReference(shape.setup.workload);
      const Round round = RunRound(shape, make_arch);
      const MachineResult& r = round.result;
      const std::string tag = StrFormat("round %zu", run_s.size() + 1);
      CheckRound(&out, r, ref, tag.c_str());
      out.Check(round.ramp_s > 0, tag + ": the MPL-th commit was not seen");
      if (run_s.empty()) first_digest = SimDigest(r);
      if (replay) {
        out.Check(SimDigest(r) == first_digest,
                  tag + ": round 1 re-run gave other simulated statistics");
      }
      out.attempted += ref.txns;
      out.failed += ref.txns - std::min<uint64_t>(
                                   ref.txns, static_cast<uint64_t>(
                                                 r.completion_ms.count()));
      restarts += r.deadlock_restarts;
      setup_s.push_back(round.setup_s);
      run_s.push_back(round.run_s);
      tps.push_back(static_cast<double>(ref.txns) / round.run_s);
      ramp_ms.push_back(round.ramp_s * 1e3);
      eps.push_back(Extra(r, "sim_events_scheduled") / round.run_s);
      if (replay) break;
    }
    out.Note(StrFormat("rounds    : %zu (%llu transactions, %llu deadlock "
                       "restarts in all)",
                       run_s.size(),
                       static_cast<unsigned long long>(out.attempted),
                       static_cast<unsigned long long>(restarts)));
    out.Note("round 1   : " + first_digest);
    out.Note(StrFormat("round time: min %.4f s, median %.4f s, max %.4f s",
                       *std::min_element(run_s.begin(), run_s.end()),
                       Median(run_s),
                       *std::max_element(run_s.begin(), run_s.end())));
    out.Metric("setup_s", Median(setup_s), "s");
    out.Metric("txn_per_s", Median(tps), "1/s");
    out.Metric("restart_ms", Median(ramp_ms), "ms");
    out.Metric("schedules_per_s", Median(eps), "1/s");
    out.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  const Shape& shape = first;
  const Reference ref = DrainReference(shape.setup.workload);
  // Traced run: a warm-up round, one untraced round as the baseline, then
  // one traced round with the auditor on, then the two replay legs.
  RunRound(shape, make_arch);
  const Round plain = RunRound(shape, make_arch);
  CheckRound(&out, plain.result, ref, "untraced round");

  Shape traced_shape = shape;
  traced_shape.setup.machine.audit = true;
  traced_shape.setup.machine.audit_abort = false;
  RefStrings ref_strings;
  std::vector<DiskRef> disk_refs;
  const int64_t t0 = NowNs();
  auto timed_source = std::make_unique<TimedSource>(
      dbmr::workload::MakeGeneratorSource(traced_shape.setup.workload),
      &ref_strings);
  const TimedSource* source = timed_source.get();
  auto timed_arch = std::make_unique<TimedArch>(make_arch(), &disk_refs);
  const TimedArch* arch = timed_arch.get();
  Machine m(traced_shape.setup.machine, std::move(timed_source),
            std::move(timed_arch));
  const int64_t t1 = NowNs();
  const MachineResult traced = m.Run();
  const int64_t t2 = NowNs();
  CheckRound(&out, traced, ref, "traced round");
  out.Check(traced.audit_violations.empty(),
            StrFormat("traced round: %zu audit violations",
                      traced.audit_violations.size()));
  out.Check(Extra(traced, "audit_checks") > 0, "traced round: auditor idle");
  out.Check(SimDigest(traced) == SimDigest(plain.result),
            "tracing changed the simulated statistics: " + SimDigest(traced) +
                " vs " + SimDigest(plain.result));
  out.Check(ref_strings.size() == ref.txns,
            "reference strings captured for every transaction");

  const double submit_ns =
      ReplayDisks(disk_refs, shape.setup.machine, opts.seed);
  const LockReplay locks = ReplayLocks(ref_strings, shape.setup.machine.mpl);
  out.Check(locks.completed == ref.txns,
            StrFormat("lock replay completed %llu of %llu transactions",
                      static_cast<unsigned long long>(locks.completed),
                      static_cast<unsigned long long>(ref.txns)));
  out.attempted = 2 * ref.txns;
  out.failed = 2 * ref.txns -
               static_cast<uint64_t>(plain.result.completion_ms.count() +
                                     traced.completion_ms.count());

  const MachineResult& r = plain.result;
  const double events = Extra(r, "sim_events_executed");
  const double traced_s = static_cast<double>(t2 - t1) * 1e-9;
  out.Note("round 1   : " + SimDigest(r));
  out.Note(StrFormat("traced    : %.0f audit checks, %zu disk requests "
                     "replayed, %llu lock-replay restarts, set-up %.6f s",
                     Extra(traced, "audit_checks"), disk_refs.size(),
                     static_cast<unsigned long long>(locks.restarts),
                     static_cast<double>(t1 - t0) * 1e-9));
  out.Metric("workload.next_ns", source->next_stat().MeanNs(), "ns");
  out.Metric("sim.events", events, "count");
  out.Metric("sim.ns_per_event", plain.run_s * 1e9 / events, "ns");
  out.Metric("sim.max_heap_depth", Extra(r, "sim_max_heap_depth"), "count");
  out.Metric("hw.submit_ns", submit_ns, "ns");
  out.Metric("hw.disk_accesses",
             static_cast<double>(Sum(r.data_disk_accesses)), "count");
  out.Metric("hw.disk_util_mean", MeanUtil(r), "fraction");
  out.Metric("hw.disk_queue_highwater_max", MaxDiskHighwater(r), "count");
  out.Metric("txn.acquire_ns", locks.acquire.MeanNs(), "ns");
  out.Metric("txn.release_all_ns", locks.release_all.MeanNs(), "ns");
  out.Metric("txn.lock_waits", static_cast<double>(locks.waits), "count");
  out.Metric("txn.deadlock_restarts",
             static_cast<double>(r.deadlock_restarts), "count");
  out.Metric("machine.arch_ns_per_page",
             static_cast<double>(arch->self().ns) /
                 static_cast<double>(traced.total_pages),
             "ns");
  out.Metric("machine.arch_calls", static_cast<double>(arch->self().calls),
             "count");
  out.Metric("machine.sim_ms_per_page", r.exec_time_per_page_ms, "ms");
  out.Metric("machine.blocked_pages_avg", r.avg_blocked_pages, "count");
  out.Metric("machine.pt_buffer_hit_rate", Extra(r, "pt_buffer_hit_rate"),
             "fraction");
  out.Metric("machine.log_pages_written", LogPagesWritten(r), "count");
  out.Metric("trace.overhead_pct",
             (traced_s - plain.run_s) / plain.run_s * 100.0, "%");
  return out;
}

}  // namespace e2e
