#ifndef PPDP_EXEC_PARALLEL_H_
#define PPDP_EXEC_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "exec/exec_config.h"
#include "exec/thread_pool.h"

namespace ppdp::exec {

/// Work-sharing parallel loop: `body(i)` runs once for each i in
/// [begin, end). The range is cut into fixed chunks of `grain` indices (the
/// last chunk may be shorter) and the chunks are claimed greedily by the
/// calling thread plus the global pool's workers.
///
/// Determinism contract: the chunk partition depends only on (begin, end,
/// grain) — never on the thread count or scheduling — and every index runs
/// exactly once. A body that writes only to per-index slots therefore
/// produces byte-identical results at --threads 1, 2, and n.
/// `config.threads` caps the execution width (0 = the global pool's size,
/// 1 = inline serial execution).
///
/// Pool workers run their chunks under the caller's innermost span id, so
/// profiler samples and /statusz stacks on them name the caller's phase.
/// Blocks until every chunk has completed. Bodies must not throw; nested
/// parallel regions execute the inner region inline.
void ParallelFor(size_t begin, size_t end, size_t grain, const std::function<void(size_t)>& body,
                 const ExecConfig& config = {});

}  // namespace ppdp::exec

#endif  // PPDP_EXEC_PARALLEL_H_
