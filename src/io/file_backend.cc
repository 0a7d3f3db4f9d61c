#include "io/file_backend.h"

namespace opaq {

Result<std::vector<std::unique_ptr<FileBlockDevice>>> OpenReadOnlyDevices(
    const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("a dataset needs at least one path");
  }
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  for (const std::string& path : paths) {
    OPAQ_ASSIGN_OR_RETURN(
        auto device,
        FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen));
    devices.push_back(std::move(device));
  }
  return devices;
}

Result<uint64_t> ReadMagic(BlockDevice* device) {
  OPAQ_ASSIGN_OR_RETURN(uint64_t size, device->Size());
  uint64_t magic = 0;
  if (size >= sizeof(magic)) {
    OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &magic, sizeof(magic)));
  }
  return magic;
}

namespace {
template <typename Header>
Result<uint32_t> HeaderKeyType(BlockDevice* device) {
  Header header;
  OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &header, sizeof(header)));
  return header.key_type;
}
}  // namespace

Result<uint32_t> ReadKeyTypeTag(BlockDevice* device) {
  OPAQ_ASSIGN_OR_RETURN(uint64_t magic, ReadMagic(device));
  if (magic == DataFileHeader::kMagic) {
    return HeaderKeyType<DataFileHeader>(device);
  }
  if (magic == StripeFileHeader::kMagic) {
    return HeaderKeyType<StripeFileHeader>(device);
  }
  if (magic == ExtentFileHeader::kMagic) {
    return HeaderKeyType<ExtentFileHeader>(device);
  }
  return Status::InvalidArgument("not an OPAQ data file (unknown magic)");
}

}  // namespace opaq
