#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace rp::parallel {

/// Non-owning callable reference: the dispatch currency of the pool API.
/// Two raw pointers, never allocates — unlike std::function, whose closure
/// copy spills to the heap past the 16-byte SBO. The conv/gemm loop bodies
/// all capture more than that, which put one operator-new on EVERY
/// parallel_for call. The referenced callable must outlive the call;
/// parallel_for / run_shards guarantee that by blocking until every chunk
/// has finished.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Number of lanes (caller + pool workers) parallel loops may use, >= 1.
/// Initialized on first use from the RP_THREADS environment variable
/// (default: hardware concurrency). RP_THREADS=1 restores fully serial
/// execution everywhere.
int num_threads();

/// Overrides the lane count at runtime (tests, benchmarks). `k < 1` resets
/// to the RP_THREADS / hardware default. Growing beyond the current pool
/// size spawns workers; shrinking parks them.
void set_num_threads(int k);

/// True while executing inside a parallel_for / run_shards task. Nested
/// parallel calls run inline on the current lane, so parallelism composes
/// without deadlock or oversubscription.
bool in_parallel_region();

/// Number of shards run_shards() would use for `items` work items right now
/// (1 when nested or single-threaded). Callers size per-shard state — e.g.
/// network clones — with this before calling run_shards.
int shard_count(int64_t items);

/// Splits [begin, end) into chunks of at most `grain` consecutive indices
/// and runs `fn(chunk_begin, chunk_end)` across the pool; the caller's lane
/// participates. Chunk boundaries depend only on (begin, end, grain), and
/// each index is executed by exactly one lane, so any decomposition that
/// writes disjoint data per index is bit-identical to a serial run. Blocks
/// until every chunk finished; rethrows the first exception.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  FunctionRef<void(int64_t, int64_t)> fn);

/// Partitions `items` into exactly `shards` contiguous ranges via the fixed
/// formula [s*items/shards, (s+1)*items/shards) and runs `fn(shard, begin,
/// end)` concurrently, one task per shard. The partition depends only on
/// (shards, items), never on scheduling, so per-shard accumulators reduced
/// in shard order give thread-count-independent results.
void run_shards(int shards, int64_t items,
                FunctionRef<void(int, int64_t, int64_t)> fn);

}  // namespace rp::parallel
