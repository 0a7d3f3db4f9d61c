#ifndef OPAQ_IO_FILE_BACKEND_H_
#define OPAQ_IO_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "util/status.h"

namespace opaq {

/// Opens `paths` read-only, in order (the stripes of one dataset, or one
/// file). An empty list is InvalidArgument.
Result<std::vector<std::unique_ptr<FileBlockDevice>>> OpenReadOnlyDevices(
    const std::vector<std::string>& paths);

/// The first 8 bytes of `device`, or 0 when it is shorter: enough to tell
/// the OPAQ on-disk formats apart ("OPAQDAT1", "OPAQSTP1", "OPAQEXT1").
Result<uint64_t> ReadMagic(BlockDevice* device);

/// The key type tag stored in the header of the file on `device`, read from
/// the header its magic names. InvalidArgument when the magic is no OPAQ
/// data format. Only the header is read; the format's own `Open` still
/// validates the whole file.
Result<uint32_t> ReadKeyTypeTag(BlockDevice* device);

/// InvalidArgument unless `file` holds keys of type `K` — checked before an
/// `ExtentFileProvider<K>`, which aborts on a mismatch, is built.
template <typename K>
Status CheckExtentKeyType(const ExtentFile& file) {
  return CheckKeyType<K>(file.key_type(), "extent file", file.element_size());
}

/// One dataset stored in files — a plain data file, a striped set, or an
/// extent file of one or more stripes — opened as a `RunProvider`. Owns the
/// devices and the one opened file (`plain`, `striped` or `extent`) the
/// provider borrows; all heap-allocated, so moving the backend keeps
/// `provider` valid.
template <typename K>
struct FileBackend {
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  std::unique_ptr<TypedDataFile<K>> plain;
  std::unique_ptr<StripedDataFile<K>> striped;
  std::unique_ptr<ExtentFile> extent;
  std::unique_ptr<RunProvider<K>> provider;
  uint64_t stripes = 1;
};

/// Opens `devices` (stripe order, at least one) as the on-disk format
/// `magic` names and binds the matching provider. The one opener behind
/// `Source::Open` and every live-dataset segment; a key type other than `K`
/// is a clean InvalidArgument, never an abort.
template <typename K>
Result<FileBackend<K>> OpenFileBackend(
    std::vector<std::unique_ptr<FileBlockDevice>> devices, uint64_t magic) {
  FileBackend<K> backend;
  backend.devices = std::move(devices);
  std::vector<BlockDevice*> raw;
  for (auto& device : backend.devices) raw.push_back(device.get());
  if (magic == DataFileHeader::kMagic) {
    if (raw.size() != 1) {
      return Status::InvalidArgument(
          "a plain data file is one path, got " + std::to_string(raw.size()));
    }
    OPAQ_ASSIGN_OR_RETURN(TypedDataFile<K> file,
                          TypedDataFile<K>::Open(raw[0]));
    backend.plain = std::make_unique<TypedDataFile<K>>(std::move(file));
    backend.provider =
        std::make_unique<FileRunProvider<K>>(backend.plain.get());
  } else if (magic == StripeFileHeader::kMagic) {
    OPAQ_ASSIGN_OR_RETURN(StripedDataFile<K> file,
                          StripedDataFile<K>::Open(std::move(raw)));
    backend.striped = std::make_unique<StripedDataFile<K>>(std::move(file));
    backend.provider =
        std::make_unique<StripedFileProvider<K>>(backend.striped.get());
    backend.stripes = backend.striped->num_stripes();
  } else if (magic == ExtentFileHeader::kMagic) {
    OPAQ_ASSIGN_OR_RETURN(ExtentFile file, ExtentFile::Open(std::move(raw)));
    OPAQ_RETURN_IF_ERROR(CheckExtentKeyType<K>(file));
    backend.extent = std::make_unique<ExtentFile>(std::move(file));
    backend.provider =
        std::make_unique<ExtentFileProvider<K>>(backend.extent.get());
    backend.stripes = backend.extent->num_stripes();
  } else {
    return Status::InvalidArgument(backend.devices[0]->path() +
                                   ": not an OPAQ data file (unknown magic)");
  }
  return backend;
}

}  // namespace opaq

#endif  // OPAQ_IO_FILE_BACKEND_H_
