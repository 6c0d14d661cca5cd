#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>  // rp-lint: allow(R2) the serving dispatcher is a long-lived control thread; all compute parallelism stays in rp::parallel
#include <vector>

#include "serve/registry.hpp"
#include "serve/router.hpp"

namespace rp::serve {

/// Engine tuning knobs. Every field is validated at engine construction
/// (std::invalid_argument on nonsense) and overridable from the environment
/// with the strict parse-or-exit(2) convention shared by RP_FAULTS /
/// RP_THREADS:
///
///   RP_SERVE_BATCH    max requests coalesced into one forward pass
///                     (>= 1, <= queue_depth)
///   RP_SERVE_QUEUE    admission bound: queued + in-flight slots   (>= 1)
///   RP_SERVE_WAIT_US  deadline: max age of the oldest pending request
///                     before a partial batch is flushed            (>= 0)
struct EngineConfig {
  int max_batch = 16;
  int queue_depth = 64;
  int64_t max_wait_us = 500;

  /// `base` with any RP_SERVE_* overrides applied. Unparsable values print
  /// the offending variable and exit(2) — a typo'd knob must never run
  /// silently with a default.
  static EngineConfig from_env(EngineConfig base);
  static EngineConfig from_env();  ///< from_env(EngineConfig{})
};

/// Routing metadata attached to a served response.
struct RouteInfo {
  std::string variant_key;
  double ratio = 0.0;
  core::Guideline guideline = core::Guideline::DoNotPrune;
  bool evidence_found = false;
};

/// Batched async inference engine over one ModelRegistry.
///
/// Clients submit single-sample requests; a dispatcher thread coalesces them
/// into batched forward passes, grouped per routed variant, executed on the
/// persistent thread pool via Network::forward. Flush policy: a batch runs
/// as soon as max_batch requests are pending, OR the slot table is full (no
/// further arrival could join), OR the oldest pending request has waited
/// max_wait_us — latency-bounded coalescing. max_batch > queue_depth is
/// rejected at construction: such a batch could never fill.
///
/// Admission control: the slot table is the bound. queue_depth requests may
/// be queued or in flight; submit() on a full table rejects immediately
/// (nullopt, counted under serve.rejects) instead of queueing unboundedly.
///
/// Lifecycle: requests may be submitted before start() (they sit queued);
/// stop() refuses new admissions, *drains* every queued request through the
/// normal batch path, then joins the dispatcher — a ticket obtained before
/// stop() is always answered. start()/stop() cycles may repeat.
///
/// Determinism: batch *composition* depends on timing, but responses do
/// not — each sample's logits are computed row-independently (row-blocked
/// GEMM with fixed k-order reductions, per-sample conv, eval-mode batch
/// norm), so a request's response is memcmp-identical to a direct
/// nn::predict on the same variant no matter which requests it shared a
/// batch with. tests/test_serve.cpp enforces this across RP_THREADS ×
/// RP_SPARSE × RP_ARENA.
///
/// Memory: request staging buffers and response rows live in per-slot
/// vectors that grow once to the task's sizes; batch assembly and forward
/// temporaries are mem::Scope scratch — steady-state serving performs no
/// heap allocation on the request path (the PR 8 lane pools absorb it).
class Engine {
 public:
  /// The registry and router must outlive the engine. Throws
  /// std::invalid_argument on a nonsense config.
  Engine(const ModelRegistry& registry, const Router& router, EngineConfig cfg);
  ~Engine();  ///< stop()s (drains) if still running
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One queued request. Single-use: pass to exactly one wait_into() call.
  struct Ticket {
    int slot = -1;
    uint64_t seq = 0;
  };

  /// Enqueues one sample ([C,H,W] or [1,C,H,W], matching the registry's
  /// task) under a distribution tag. Returns nullopt when rejected — queue
  /// full, or the engine is stopped/stopping. Throws std::invalid_argument
  /// on a shape mismatch: malformed input is a caller bug, not load.
  std::optional<Ticket> submit(const Tensor& image, const std::string& tag);

  /// Blocks until the ticket's request is served, then copies the sample's
  /// logits into *logits ([classes] or [classes,H,W]; storage is reused
  /// when already the right shape). Throws std::runtime_error if the batch
  /// failed, std::logic_error on a stale/double-waited ticket.
  void wait_into(const Ticket& ticket, Tensor* logits, RouteInfo* info = nullptr);

  /// submit + wait_into. False = rejected by admission control.
  bool infer(const Tensor& image, const std::string& tag, Tensor* logits,
             RouteInfo* info = nullptr);

  /// Spawns the dispatcher and (re)opens admission. Idempotent.
  void start();
  /// Closes admission, drains every queued request, joins the dispatcher.
  /// Idempotent; a no-op when never started (queued requests stay queued
  /// for a later start()).
  void stop();
  bool running() const;

  /// Engine-local mirror of the serve.* obs counters (obs may be disabled).
  struct Stats {
    int64_t requests = 0;  ///< admitted
    int64_t rejects = 0;   ///< refused by admission control
    int64_t batches = 0;   ///< coalesced forward passes executed
    int64_t failures = 0;  ///< requests answered with an error
  };
  Stats stats() const;

  const EngineConfig& config() const { return cfg_; }

 private:
  enum class SlotState { kFree, kQueued, kDone, kFailed };

  struct Slot {
    SlotState state = SlotState::kFree;
    uint64_t seq = 0;
    std::string tag;
    std::vector<float> input;    ///< staged sample, grown once to C*H*W
    std::vector<float> output;   ///< served logits row, grown once
    std::vector<int64_t> out_dims;  ///< per-sample logits shape
    std::chrono::steady_clock::time_point enqueue_time;
    const Variant* variant = nullptr;
    core::Guideline guideline = core::Guideline::DoNotPrune;
    bool evidence_found = false;
    std::string error;
  };

  void dispatch_loop();
  void execute(const std::vector<int>& batch);
  void run_batch(const Variant& variant, const std::vector<int>& group);
  void fail_group(const std::vector<int>& group, const std::string& what);

  const ModelRegistry& registry_;
  const Router& router_;
  const EngineConfig cfg_;
  const std::chrono::microseconds max_wait_;

  mutable std::mutex m_;
  std::condition_variable client_cv_;  ///< wakes waiters when slots complete
  std::condition_variable worker_cv_;  ///< wakes the dispatcher on work/stop
  std::vector<Slot> slots_;
  std::vector<int> free_;     ///< free slot indices (LIFO)
  std::vector<int> pending_;  ///< FIFO ring of queued slot indices
  size_t pending_head_ = 0;
  size_t pending_size_ = 0;
  uint64_t next_seq_ = 0;
  bool accepting_ = true;
  bool stop_requested_ = false;
  bool running_ = false;
  Stats stats_;

  // Dispatcher-owned scratch, grown once (never touched by clients).
  std::vector<int> batch_idx_;
  std::vector<int> group_idx_;

  std::thread dispatcher_;  // rp-lint: allow(R2) single long-lived dispatcher; compute runs on rp::parallel via Network::forward
};

}  // namespace rp::serve
