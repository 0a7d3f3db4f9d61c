#include "core/opaq_config.h"

#include <sstream>

#include "util/math.h"

namespace opaq {

Status OpaqConfig::Validate(uint64_t n, uint64_t memory_budget_elements) const {
  if (run_size == 0) {
    return Status::InvalidArgument("run_size must be positive");
  }
  if (samples_per_run == 0) {
    return Status::InvalidArgument("samples_per_run must be positive");
  }
  if (samples_per_run > run_size) {
    return Status::InvalidArgument(
        "samples_per_run must not exceed run_size");
  }
  if (run_size % samples_per_run != 0) {
    return Status::InvalidArgument(
        "samples_per_run must divide run_size (paper footnote 1; use a "
        "power-of-two pair)");
  }
  if (io_mode == IoMode::kAsync &&
      (prefetch_depth == 0 || prefetch_depth > kMaxPrefetchDepth)) {
    std::ostringstream os;
    os << "prefetch_depth must be in [1, " << kMaxPrefetchDepth
       << "] in async io_mode, got " << prefetch_depth;
    return Status::InvalidArgument(os.str());
  }
  if (stripes == 0 || stripes > kMaxStripes) {
    std::ostringstream os;
    os << "stripes must be in [1, " << kMaxStripes << "], got " << stripes;
    return Status::InvalidArgument(os.str());
  }
  if (n > 0 && memory_budget_elements > 0) {
    const uint64_t runs = DivCeil(n, run_size);
    // Async prefetching holds prefetch_depth extra run buffers beyond the
    // one the sampler works on, so the §2.3 inequality charges them all.
    // The striped backend keeps prefetch_depth chunks in flight PER STRIPE;
    // the chunk size is a property of the file, not the config, so it is
    // charged at the recommended chunk <= run_size layout (a larger chunk
    // raises the true footprint beyond this estimate).
    const uint64_t buffers =
        io_mode == IoMode::kAsync ? stripes * prefetch_depth + 1 : 1;
    const uint64_t needed = runs * samples_per_run + buffers * run_size;
    if (needed > memory_budget_elements) {
      std::ostringstream os;
      os << "memory constraint r*s + " << buffers << "*m <= M violated: "
         << runs << "*" << samples_per_run << " + " << buffers << "*"
         << run_size << " = " << needed << " > " << memory_budget_elements;
      return Status::InvalidArgument(os.str());
    }
  }
  return Status::OK();
}

std::string OpaqConfig::ToString() const {
  std::ostringstream os;
  os << "OpaqConfig(m=" << run_size << ", s=" << samples_per_run
     << ", c=" << subrun_size()
     << ", select=" << SelectAlgorithmName(select_algorithm)
     << ", seed=" << seed << ", io=" << IoModeName(io_mode);
  if (io_mode == IoMode::kAsync) os << "/depth=" << prefetch_depth;
  if (stripes > 1) os << ", stripes=" << stripes;
  if (!verify_checksums) os << ", nocrc";
  os << ")";
  return os.str();
}

}  // namespace opaq
