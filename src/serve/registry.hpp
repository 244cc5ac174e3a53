#pragma once
// serve::ModelRegistry — the multi-model heart of the serving stack.
//
// A registry maps names to entries, each owning an immutable runtime::Model
// plus the DynamicBatcher (and therefore the dispatcher Sessions) that
// serves it. This is what turns one server into the paper's flagship
// multi-scenario workload: several format variants of the same network —
// e.g. posit<8,0> vs fixed<8,7> Iris models — served side by side, each
// request routed by the protocol-v2 model-name field (v1 frames and empty
// names go to the *default* entry, which is the first ever loaded unless
// set_default() changed it).
//
// Hot load/swap/unload is atomic with respect to routing and never drops an
// in-flight request:
//
//   1. acquire() resolves a name to an entry and pins it, under the registry
//      lock, returning a RAII Lease; the caller submits through the lease.
//   2. load() over an existing name (a swap) and unload() first replace /
//      remove the map entry under that same lock — after which no new
//      acquire can reach the old entry — then wait until every outstanding
//      lease on it is released, and only then drain its batcher
//      (DynamicBatcher::shutdown flushes every accepted request through a
//      Session before returning, so all of them get real kOk responses).
//
// The pin is what closes the lookup→submit race: a request that resolved
// the old entry a nanosecond before the swap still lands in the old batcher
// *before* its drain begins, and is answered from the old model. Requests
// resolved after the swap see the new model. Nothing in between is
// possible, which is the invariant tests/serve/registry_test.cpp and the
// hot-swap-under-load test in tcp_server_test.cpp pin down.
//
// Threading contract: every method is safe from any thread. Leases are
// move-only values owned by one thread at a time (the server's event loop
// holds one only across a submit call). The registry must outlive its
// leases. A registry belongs to ONE serve::Server at a time: Server::stop()
// (and therefore ~Server) drains it via shutdown_all(), after which it
// routes nothing and refuses further loads — hand each Server its own
// registry.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <vector>

#include "runtime/model.hpp"
#include "serve/batcher.hpp"

namespace dp::serve {

class ModelRegistry {
 public:
  /// One registry entry as the request path sees it: the model (for
  /// dimension/format checks) and the batcher(s) to submit into. A registry
  /// constructed with `lanes` > 1 gives every entry that many independent
  /// admission lanes — identical DynamicBatchers over the one shared model —
  /// so N server shards can submit without contending on a single admission
  /// lock.
  struct Entry {
    Entry(std::string name, std::shared_ptr<const runtime::Model> model,
          const BatcherOptions& opts, std::size_t lanes = 1)
        : name(std::move(name)), model(std::move(model)) {
      for (std::size_t i = 0; i < std::max<std::size_t>(lanes, 1); ++i) {
        lanes_.push_back(std::make_unique<DynamicBatcher>(this->model, opts));
      }
    }

    const std::string name;
    const std::shared_ptr<const runtime::Model> model;

    /// Admission lanes on this entry (>= 1).
    std::size_t lanes() const { return lanes_.size(); }
    /// Lane i's batcher; i wraps modulo lanes(), so a shard may index by its
    /// own number without knowing the registry's lane count.
    DynamicBatcher& lane(std::size_t i) { return *lanes_[i % lanes_.size()]; }

   private:
    friend class ModelRegistry;
    std::vector<std::unique_ptr<DynamicBatcher>> lanes_;
    std::size_t pinned_ = 0;  // outstanding leases; guarded by the registry mutex
  };

  /// RAII pin on one entry (see acquire()). An invalid lease (operator bool
  /// false) means the name resolved to nothing.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { release(); }
    Lease(Lease&& other) noexcept
        : registry_(other.registry_), entry_(std::move(other.entry_)) {
      other.registry_ = nullptr;
      other.entry_.reset();
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        registry_ = other.registry_;
        entry_ = std::move(other.entry_);
        other.registry_ = nullptr;
        other.entry_.reset();
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    explicit operator bool() const { return entry_ != nullptr; }
    Entry* operator->() const { return entry_.get(); }
    Entry& operator*() const { return *entry_; }

    /// Unpin early (idempotent; the destructor calls it).
    void release();

   private:
    friend class ModelRegistry;
    Lease(ModelRegistry* registry, std::shared_ptr<Entry> entry)
        : registry_(registry), entry_(std::move(entry)) {}

    ModelRegistry* registry_ = nullptr;
    std::shared_ptr<Entry> entry_;
  };

  /// Registry-level lifecycle counters (stats() gives the per-entry view).
  struct Counters {
    std::uint64_t loads = 0;    ///< load() calls that created a new name
    std::uint64_t swaps = 0;    ///< load() calls that replaced an entry
    std::uint64_t unloads = 0;  ///< unload() calls that removed one
  };

  /// `lanes` is the per-entry admission-lane count applied to every load()
  /// (0 is clamped to 1). The sharded Server sizes this to its shard count.
  explicit ModelRegistry(std::size_t lanes = 1) : lanes_(lanes == 0 ? 1 : lanes) {}
  ~ModelRegistry();

  /// Admission lanes every entry is built with.
  std::size_t lanes() const { return lanes_; }

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Load a model under `name`, or atomically replace (hot-swap) the entry
  /// already there — the old entry finishes every in-flight request on the
  /// old model before it is released (see the header comment). The first
  /// load becomes the default entry. Throws std::invalid_argument on a null
  /// model, a name longer than the protocol's kMaxModelNameBytes, or a
  /// swap/reload that changes the name's format or input/output dimensions
  /// — enforced even across unload()+load(), because clients quantize with
  /// the format captured at connect and a new format is a new name — and
  /// std::runtime_error after shutdown_all().
  void load(const std::string& name, std::shared_ptr<const runtime::Model> model,
            BatcherOptions opts = {});

  /// load() from a shipped artifact file: the hot-reload spelling operators
  /// actually use. runtime::Model::load reads both the "dpnet-quant" text
  /// format and the compressed ".dpnetz" container transparently, so a fleet
  /// can switch artifact formats without touching its reload tooling. Same
  /// guarantees and exceptions as load(), plus std::runtime_error on an
  /// unreadable or malformed file.
  void load_file(const std::string& name, const std::string& path,
                 BatcherOptions opts = {}) {
    load(name, runtime::Model::load(path), std::move(opts));
  }

  /// Drain and remove one entry, by its explicit name ("" is a read-side
  /// route alias, not a loadable or unloadable name). Returns false if the
  /// name is unknown. If the default entry is unloaded the default becomes
  /// unset until the next load() or set_default().
  bool unload(const std::string& name);

  /// Resolve and pin an entry: empty name = the default entry. The returned
  /// lease keeps the entry fully serviceable (a concurrent swap/unload waits
  /// for it) — hold it only across a submit, not across a response wait.
  Lease acquire(const std::string& name);

  /// Route a name to the default entry's name. Empty while nothing is loaded.
  std::string default_name() const;
  /// Make `name` the default (v1 / empty-name) route. Throws
  /// std::invalid_argument if the name is unknown.
  void set_default(const std::string& name);

  /// Whether `name` routes to an entry (empty name = default, like
  /// acquire/model/stats).
  bool has(const std::string& name) const;
  /// Loaded names, sorted (the map order).
  std::vector<std::string> names() const;
  /// The model under `name` (empty name = default); nullptr if unknown.
  std::shared_ptr<const runtime::Model> model(const std::string& name) const;
  /// Batcher stats of one entry, aggregated across its lanes: counters and
  /// gauges are summed, and the wait percentiles are recomputed over the
  /// union of the lanes' sliding windows (percentiles of a union, never an
  /// average of percentiles). nullopt if unknown (empty name = default).
  std::optional<BatcherStats> stats(const std::string& name) const;
  Counters counters() const;

  /// Drain every entry and refuse further loads. Idempotent; the destructor
  /// calls it. Requests routed afterwards resolve to nothing, but the
  /// entries themselves stay readable — model() and stats() keep returning
  /// the final state, so counters survive an orderly Server::stop().
  void shutdown_all();

 private:
  /// What the reload guard remembers about a route: a later load() of the
  /// same name (and any repointing of the default route) is held to the
  /// same format/shape as what clients may have captured at connect.
  struct RetiredSignature {
    num::Format format;         ///< input (request-encode) format
    num::Format output_format;  ///< reply-decode format; == format when uniform
    std::size_t input_dim = 0;
    std::size_t output_dim = 0;
  };
  static RetiredSignature signature_of(const runtime::Model& m);
  static bool same_signature(const RetiredSignature& a, const RetiredSignature& b);
  /// Map lookup honouring the empty-name = default rule. Caller holds m_.
  std::map<std::string, std::shared_ptr<Entry>>::const_iterator find_locked(
      const std::string& name) const;
  /// Wait until no lease pins `entry`, then return with m_ NOT held so the
  /// caller can run the (blocking) batcher drain outside the lock.
  void wait_unpinned(std::unique_lock<std::mutex>& lk, const std::shared_ptr<Entry>& entry);

  mutable std::mutex m_;
  std::condition_variable cv_;  // signalled on lease release
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  // Signatures of unloaded names — unload()+load() must not bypass the
  // swap guard. Signatures, not Models: retiring many large models must
  // not pin their weights for the registry's lifetime.
  std::map<std::string, RetiredSignature> retired_;
  // The default route is a client-visible contract exactly like a name: v1
  // / empty-name clients quantize with the format they captured while it
  // pointed at some entry. Once established it pins the route's signature:
  // set_default() to an incompatible entry throws, and the auto-assignment
  // of a new default on load() skips incompatible candidates (no route —
  // kNotFound — is safe; a wrong-format route is silent corruption).
  std::optional<RetiredSignature> default_sig_;
  std::string default_;
  bool shutdown_ = false;
  Counters counters_;
  const std::size_t lanes_ = 1;
};

}  // namespace dp::serve
