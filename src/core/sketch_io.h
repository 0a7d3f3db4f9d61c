#ifndef OPAQ_CORE_SKETCH_IO_H_
#define OPAQ_CORE_SKETCH_IO_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/sample_list.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "util/status.h"

namespace opaq {

/// Persistence for sample lists — what makes the paper's §4 incremental
/// scenario practical across process restarts: a system saves the sorted
/// samples of the data it has already scanned, and on new data loads them,
/// samples only the new runs, merges, and saves again.
///
/// On-disk layout (little-endian, 64 bytes header + raw samples):
///   magic "OPAQSKT1" | version | key_type | subrun_size | num_runs |
///   num_samples | num_uncovered | total_elements | reserved | samples[]
struct SketchFileHeader {
  static constexpr uint64_t kMagic = 0x4f504151534b5431ULL;  // "OPAQSKT1"
  uint64_t magic = kMagic;
  uint32_t version = 1;
  uint32_t key_type = 0;
  uint64_t subrun_size = 0;
  uint64_t num_runs = 0;
  uint64_t num_samples = 0;
  uint64_t num_uncovered = 0;
  uint64_t total_elements = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(SketchFileHeader) == 64);
static_assert(std::is_trivially_copyable_v<SketchFileHeader>);

/// Writes `list` to offset 0 of `device`.
template <typename K>
Status SaveSampleList(const SampleList<K>& list, BlockDevice* device) {
  OPAQ_CHECK(device != nullptr);
  const SampleAccounting& acc = list.accounting();
  if (!acc.Valid()) {
    return Status::FailedPrecondition(
        "cannot save an empty/invalid sample list");
  }
  SketchFileHeader header;
  header.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
  header.subrun_size = acc.subrun_size;
  header.num_runs = acc.num_runs;
  header.num_samples = acc.num_samples;
  header.num_uncovered = acc.num_uncovered;
  header.total_elements = acc.total_elements;
  OPAQ_RETURN_IF_ERROR(device->WriteAt(0, &header, sizeof(header)));
  if (!list.samples().empty()) {
    OPAQ_RETURN_IF_ERROR(device->WriteAt(sizeof(header),
                                         list.samples().data(),
                                         list.samples().size() * sizeof(K)));
  }
  return device->Sync();
}

/// Reads a sample list previously written by SaveSampleList.
template <typename K>
Result<SampleList<K>> LoadSampleList(BlockDevice* device) {
  OPAQ_CHECK(device != nullptr);
  auto size = device->Size();
  if (!size.ok()) return size.status();
  if (*size < sizeof(SketchFileHeader)) {
    return Status::InvalidArgument("device too small for a sketch file");
  }
  SketchFileHeader header;
  OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &header, sizeof(header)));
  if (header.magic != SketchFileHeader::kMagic) {
    return Status::InvalidArgument("bad magic: not an OPAQ sketch file");
  }
  if (header.version != 1) {
    return Status::InvalidArgument("unsupported sketch file version");
  }
  OPAQ_RETURN_IF_ERROR(CheckKeyType<K>(header.key_type, "sketch"));
  if (*size < sizeof(header) + header.num_samples * sizeof(K)) {
    return Status::InvalidArgument("sketch file truncated");
  }
  SampleAccounting acc;
  acc.subrun_size = header.subrun_size;
  acc.num_runs = header.num_runs;
  acc.num_samples = header.num_samples;
  acc.num_uncovered = header.num_uncovered;
  acc.total_elements = header.total_elements;
  if (!acc.Valid()) {
    return Status::InvalidArgument("sketch header fails its invariant");
  }
  std::vector<K> samples(header.num_samples);
  if (!samples.empty()) {
    OPAQ_RETURN_IF_ERROR(device->ReadAt(sizeof(header), samples.data(),
                                        samples.size() * sizeof(K)));
    for (size_t i = 1; i < samples.size(); ++i) {
      if (samples[i] < samples[i - 1]) {
        return Status::InvalidArgument("sketch samples are not sorted");
      }
    }
  }
  return SampleList<K>(std::move(samples), acc);
}

}  // namespace opaq

#endif  // OPAQ_CORE_SKETCH_IO_H_
