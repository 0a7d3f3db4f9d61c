#ifndef OPAQ_INCLUDE_OPAQ_IO_H_
#define OPAQ_INCLUDE_OPAQ_IO_H_

/// Public storage surface: block devices (file-backed, in-memory, throttled
/// disk simulation, fault injection), typed data files, the striped
/// multi-disk and compressed extent file formats, the
/// `RunProvider`/`RunSource` backend abstraction with its providers, the
/// `ChunkPipeline` run reader every prefetching provider returns, and
/// temp-dir helpers. Most users never touch these directly — `opaq::Source`
/// (opaq/source.h) wraps them — but systems embedding OPAQ on their own
/// storage implement `RunProvider` (or just a `ChunkLane`) from here.

#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/chunk_pipeline.h"
#include "io/codec.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/faulty_device.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "io/tempdir.h"
#include "io/throttled_device.h"

#endif  // OPAQ_INCLUDE_OPAQ_IO_H_
