// Parallel-then-exit child for ObsLifetime.ParallelThenExitNeverAborts.
// Pool workers record a task's timing into the obs registry after the
// task's future is ready, so they can still be inside obs while main
// returns and static destructors run.  The child widens that window on
// purpose: it returns with pool tasks still in flight, which the pool's
// destructor drains after every later-constructed static is gone.
#include <chrono>
#include <cmath>
#include <thread>

#include "compress/factory.hpp"
#include "core/pipeline.hpp"
#include "parallel/thread_pool.hpp"

int main() {
  using namespace rmp;
  sim::Field field(12, 12, 12);
  for (std::size_t n = 0; n < field.size(); ++n) {
    field.flat()[n] = std::sin(0.05 * static_cast<double>(n));
  }
  const auto reduced = compress::make_zfp_original();
  const auto delta = compress::make_zfp_delta();
  const core::CodecPair codecs{reduced.get(), delta.get()};
  const auto container =
      core::make_preconditioner("blocked-svd")->encode(field, codecs, nullptr);
  const sim::Field decoded = core::reconstruct(container, codecs);

  for (int t = 0; t < 8; ++t) {
    (void)parallel::global_pool().submit([t] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * t));
    });
  }
  return decoded.size() == field.size() ? 0 : 1;
}
